package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func dep(id, platform string, addr uint32, status string) *DeploymentRecord {
	return &DeploymentRecord{
		ID: id, ModuleName: "m-" + id, Platform: platform, Addr: addr,
		Status: status, Config: "in :: FromNetfront();",
	}
}

func mustAppend(t *testing.T, s *Store, r Record) {
	t.Helper()
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-1", "Platform1", 42, StatusActive), NextID: 1})
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-2", "Platform2", 43, StatusActive), NextID: 2})
	mustAppend(t, s, Record{Type: EvKill, ID: "pm-2"})
	mustAppend(t, s, Record{Type: EvReject, ID: "evil", Reason: "security"})
	want := s.State()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.State()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("replayed state differs:\nwant %+v\ngot  %+v", want, got)
	}
	if got.Placed != 2 || got.Rejections != 1 {
		t.Errorf("counters: placed=%d rejections=%d", got.Placed, got.Rejections)
	}
	if _, alive := got.Deployments["pm-2"]; alive {
		t.Error("killed pm-2 resurrected")
	}
	if got.NextID != 2 {
		t.Errorf("NextID = %d, want 2", got.NextID)
	}
	// The store must keep accepting appends after a replay.
	mustAppend(t, s2, Record{Type: EvAdmit, Dep: dep("pm-3", "Platform1", 44, StatusActive), NextID: 3})
	if s2.Seq() != want.Seq+1 {
		t.Errorf("seq after replayed append = %d, want %d", s2.Seq(), want.Seq+1)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-1", "Platform1", 42, StatusActive), NextID: 1})
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-2", "Platform2", 43, StatusActive), NextID: 2})
	want := s.State()
	s.Close()

	// A crash mid-append: half a frame of a kill record.
	jpath := filepath.Join(dir, JournalFile)
	full, err := EncodeRecord(Record{Seq: 3, Type: EvKill, ID: "pm-1"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery from torn tail failed: %v", err)
	}
	defer s2.Close()
	if got := s2.State(); !reflect.DeepEqual(want, got) {
		t.Errorf("torn record not dropped:\nwant %+v\ngot  %+v", want, got)
	}
	// The torn bytes must be physically gone so appends don't land
	// after garbage.
	data, _ := os.ReadFile(jpath)
	if recs, valid := DecodeAll(data, 0); len(recs) != 2 || valid != int64(len(data)) {
		t.Errorf("journal still carries invalid bytes: %d records, %d/%d valid", len(recs), valid, len(data))
	}
}

func TestBitFlipTruncatesAtCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-1", "Platform1", 42, StatusActive), NextID: 1})
	afterFirst := s.State()
	mustAppend(t, s, Record{Type: EvKill, ID: "pm-1"})
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-2", "Platform2", 43, StatusActive), NextID: 2})
	s.Close()

	jpath := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the second frame's payload: everything from
	// the corruption on is dropped, so the kill and the later admit
	// both vanish — the journal never "skips over" damage.
	first, _ := EncodeRecord(Record{Seq: 1, Type: EvAdmit, Dep: dep("pm-1", "Platform1", 42, StatusActive), NextID: 1})
	pos := len(first) + 12
	data[pos] ^= 0x40
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery from bit flip failed: %v", err)
	}
	defer s2.Close()
	if got := s2.State(); !reflect.DeepEqual(afterFirst, got) {
		t.Errorf("state after corruption:\nwant %+v\ngot  %+v", afterFirst, got)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		id := "pm-" + string(rune('0'+i%10))
		mustAppend(t, s, Record{Type: EvAdmit, Dep: dep(id, "Platform1", uint32(40+i), StatusActive), NextID: i})
	}
	want := s.State()
	s.Close()

	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); err != nil {
		t.Fatalf("no snapshot written after compaction threshold: %v", err)
	}
	// The journal holds only the records since the last snapshot.
	data, _ := os.ReadFile(filepath.Join(dir, JournalFile))
	if recs, _ := DecodeAll(data, 0); len(recs) >= 10 {
		t.Errorf("journal not compacted: %d records on disk", len(recs))
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.State(); !reflect.DeepEqual(want, got) {
		t.Errorf("snapshot+journal replay differs:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	// Simulate the compaction crash window: snapshot at Seq N on
	// disk, journal still holding records ≤ N. Replay must skip them.
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-1", "Platform1", 42, StatusActive), NextID: 1})
	mustAppend(t, s, Record{Type: EvKill, ID: "pm-1"})
	want := s.State()
	if err := writeSnapshotOnly(s); err != nil {
		t.Fatal(err)
	}
	s.Close() // journal NOT truncated: records 1..2 remain on disk

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.State()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("double-applied pre-snapshot records:\nwant %+v\ngot  %+v", want, got)
	}
	if got.Placed != 1 {
		t.Errorf("Placed = %d (pre-snapshot admit replayed twice)", got.Placed)
	}
}

// writeSnapshotOnly writes the snapshot without truncating the
// journal, reproducing a crash inside Compact.
func writeSnapshotOnly(s *Store) error {
	data, err := json.Marshal(s.state)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(s.dir, SnapshotFile), data, 0o644)
}

// TestCompactCrashAfterRenameRecovers drives the REAL Compact path to
// its narrowest crash window — the snapshot rename (and directory
// fsync) succeeded, the journal truncate never ran — and proves a
// restart neither double-applies the snapshotted records nor burns a
// sequence number. TestCrashBetweenSnapshotAndTruncate fakes this
// window by hand; here the hook aborts Compact itself, so the test
// also covers the snapshot bytes Compact actually writes.
func TestCompactCrashAfterRenameRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-1", "Platform1", 42, StatusActive), NextID: 1})
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-2", "Platform2", 43, StatusActive), NextID: 2})
	mustAppend(t, s, Record{Type: EvKill, ID: "pm-1"})
	want := s.State()

	crash := fmt.Errorf("injected crash after snapshot rename")
	s.testCrashAfterSnapshotRename = func() error { return crash }
	if err := s.Compact(); err != crash {
		t.Fatalf("Compact = %v, want injected crash", err)
	}
	s.Close()

	// The crash left both artifacts: a snapshot at Seq 3 AND a journal
	// still holding records 1..3.
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); err != nil {
		t.Fatalf("snapshot missing after crash point: %v", err)
	}
	data, _ := os.ReadFile(filepath.Join(dir, JournalFile))
	if recs, _ := DecodeAll(data, 0); len(recs) != 3 {
		t.Fatalf("journal holds %d records, want all 3 (truncate must not have run)", len(recs))
	}

	s2, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.State()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("state after crash-point recovery:\nwant %+v\ngot  %+v", want, got)
	}
	if got.Placed != 2 {
		t.Errorf("Placed = %d, want 2 (pre-snapshot admits double-applied)", got.Placed)
	}
	// Appends resume at the exact next sequence number.
	mustAppend(t, s2, Record{Type: EvAdmit, Dep: dep("pm-3", "Platform1", 44, StatusActive), NextID: 3})
	if got := s2.Seq(); got != 4 {
		t.Errorf("next append Seq = %d, want 4", got)
	}
}

func TestPlatformDownUpFolding(t *testing.T) {
	st := NewState()
	st.Apply(Record{Seq: 1, Type: EvAdmit, Dep: dep("pm-1", "Platform1", 42, StatusActive), NextID: 1})
	st.Apply(Record{Seq: 2, Type: EvAdmit, Dep: dep("pm-2", "Platform2", 43, StatusActive), NextID: 2})
	st.Apply(Record{Seq: 3, Type: EvPlatformDown, Platform: "Platform1"})
	if st.Deployments["pm-1"].Status != StatusDegraded {
		t.Errorf("pm-1 status = %s, want degraded", st.Deployments["pm-1"].Status)
	}
	if st.Deployments["pm-2"].Status != StatusActive {
		t.Errorf("pm-2 status = %s, want active", st.Deployments["pm-2"].Status)
	}
	if !st.PlatformDown["Platform1"] {
		t.Error("Platform1 not marked down")
	}
	st.Apply(Record{Seq: 4, Type: EvPlatformUp, Platform: "Platform1"})
	if st.Deployments["pm-1"].Status != StatusActive {
		t.Errorf("pm-1 status after recovery = %s", st.Deployments["pm-1"].Status)
	}
	if len(st.PlatformDown) != 0 {
		t.Error("PlatformDown not cleared")
	}
}

func TestAppendRollsBackTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-1", "Platform1", 42, StatusActive), NextID: 1})

	// Inject a torn write: half the frame lands, then the disk fills.
	s.testWrite = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		return n, errors.New("disk full")
	}
	if err := s.Append(Record{Type: EvAdmit, Dep: dep("pm-2", "Platform2", 43, StatusActive), NextID: 2}); err == nil {
		t.Fatal("torn append reported success")
	}
	s.testWrite = nil

	// The store must roll the file back to the last good frame, so
	// this strict write-ahead kill lands at a clean boundary — not
	// after garbage that replay would truncate away along with it.
	mustAppend(t, s, Record{Type: EvKill, ID: "pm-1"})
	want := s.State()
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.State()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("state after torn write differs:\nwant %+v\ngot  %+v", want, got)
	}
	if _, alive := got.Deployments["pm-1"]; alive {
		t.Error("kill appended after a torn write was lost on replay")
	}
}

func TestAppendWedgesWhenRollbackFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Type: EvAdmit, Dep: dep("pm-1", "Platform1", 42, StatusActive), NextID: 1})
	// Swap in a read-only handle: the append's write fails AND the
	// rollback truncate fails, so the store must wedge.
	rw := s.f
	ro, err := os.Open(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	s.f = ro
	if err := s.Append(Record{Type: EvKill, ID: "pm-1"}); err == nil {
		t.Fatal("append on a read-only journal succeeded")
	}
	ro.Close()
	s.f = rw
	// Even with the good handle back, a wedged store refuses appends:
	// the file may end in garbage it cannot account for.
	if err := s.Append(Record{Type: EvKill, ID: "pm-1"}); err == nil {
		t.Fatal("wedged store accepted an append")
	}
	s.Close()
}

func TestOpenRejectsMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Error("Open of a missing directory succeeded")
	}
}

// A reader resuming by sequence number must survive a Compact
// boundary: positions that predate the compaction are gone from disk
// (RecordsAfter says so explicitly), while DecodeAll's afterSeq filter
// resumes cleanly from any position against the post-compaction file —
// the replication catch-up path depends on both behaviors.
func TestDecodeAllAfterSeqAcrossCompactBoundary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 3; i++ {
		mustAppend(t, s, Record{Type: EvAdmit, Dep: dep(fmt.Sprintf("pm-%d", i), "Platform1", uint32(40+i), StatusActive), NextID: i})
	}
	// Compact folds seqs 1..3 into the snapshot and truncates the log.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 6; i++ {
		mustAppend(t, s, Record{Type: EvAdmit, Dep: dep(fmt.Sprintf("pm-%d", i), "Platform2", uint32(40+i), StatusActive), NextID: i})
	}

	data, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	seqs := func(recs []Record) []uint64 {
		var out []uint64
		for _, r := range recs {
			out = append(out, r.Seq)
		}
		return out
	}

	// afterSeq pointing before the boundary: everything on disk is
	// newer, so the whole tail comes back.
	recs, valid := DecodeAll(data, 2)
	if valid != int64(len(data)) || !reflect.DeepEqual(seqs(recs), []uint64{4, 5, 6}) {
		t.Errorf("DecodeAll(after=2) = seqs %v, valid %d/%d; want [4 5 6], all valid", seqs(recs), valid, len(data))
	}
	// Mid-file resume within the post-compaction tail.
	recs, _ = DecodeAll(data, 5)
	if !reflect.DeepEqual(seqs(recs), []uint64{6}) {
		t.Errorf("DecodeAll(after=5) = seqs %v, want [6]", seqs(recs))
	}
	// At (and past) the head: nothing.
	if recs, _ = DecodeAll(data, 6); len(recs) != 0 {
		t.Errorf("DecodeAll(after=6) = seqs %v, want none", seqs(recs))
	}

	// RecordsAfter distinguishes "before the boundary" (the records no
	// longer exist as frames — callers must fall back to a snapshot)
	// from "at or after" (an incremental read works).
	if _, err := s.RecordsAfter(2); !errors.Is(err, ErrCompacted) {
		t.Errorf("RecordsAfter(2) err = %v, want ErrCompacted", err)
	}
	got, err := s.RecordsAfter(3)
	if err != nil || !reflect.DeepEqual(seqs(got), []uint64{4, 5, 6}) {
		t.Errorf("RecordsAfter(3) = seqs %v, err %v; want [4 5 6]", seqs(got), err)
	}
	got, err = s.RecordsAfter(5)
	if err != nil || !reflect.DeepEqual(seqs(got), []uint64{6}) {
		t.Errorf("RecordsAfter(5) = seqs %v, err %v; want [6]", seqs(got), err)
	}
	if got, err = s.RecordsAfter(6); err != nil || len(got) != 0 {
		t.Errorf("RecordsAfter(6) = %d recs, err %v; want none", len(got), err)
	}
}

// A record in a State is never written: clones share records, so a
// status sweep that wrote the record it holds would change every
// earlier clone too. The fold of a generated history of admits,
// migrations, failed migrations, platform flips and kills must leave
// each clone taken before a record marshalling to the bytes it had.
func TestApplyNeverWritesAHeldRecord(t *testing.T) {
	platforms := []string{"Platform1", "Platform2", "Platform3"}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		st := NewState()
		var clones []*State
		var before [][]byte
		next := 0
		for i := 0; i < 200; i++ {
			ids := st.IDs()
			var r Record
			switch op := rng.IntN(6); {
			case op == 0 || len(ids) == 0:
				next++
				id := fmt.Sprintf("pm-%d", next)
				r = Record{Type: EvAdmit, Dep: dep(id, platforms[rng.IntN(3)], uint32(next), StatusActive)}
			case op == 1:
				next++
				r = Record{Type: EvMigrate, Dep: dep(ids[rng.IntN(len(ids))], platforms[rng.IntN(3)], uint32(next), StatusActive)}
			case op == 2:
				r = Record{Type: EvMigrateFailed, ID: ids[rng.IntN(len(ids))]}
			case op == 3:
				r = Record{Type: EvPlatformDown, Platform: platforms[rng.IntN(3)]}
			case op == 4:
				r = Record{Type: EvPlatformUp, Platform: platforms[rng.IntN(3)]}
			default:
				r = Record{Type: EvKill, ID: ids[rng.IntN(len(ids))]}
			}
			r.Seq = uint64(i + 1)
			c := st.Clone()
			data, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			clones, before = append(clones, c), append(before, data)
			st.Apply(r)
		}
		statuses := map[string]bool{}
		for i, c := range clones {
			after, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before[i]) {
				t.Fatalf("seed %d: the clone taken before record %d changed:\nbefore %s\nafter  %s", seed, i+1, before[i], after)
			}
			for _, d := range c.Deployments {
				statuses[d.Status] = true
			}
		}
		if !statuses[StatusDegraded] || !statuses[StatusFailed] {
			t.Fatalf("seed %d: history reached statuses %v, want degraded and failed among them", seed, statuses)
		}
	}
}
