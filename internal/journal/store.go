package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/in-net/innet/internal/telemetry"
)

// SyncPolicy selects journal durability.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record: a crash loses
	// nothing the caller was told succeeded.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS: faster, a crash may lose
	// the last few records (replay still recovers a clean prefix).
	SyncNone
)

// ParseSyncPolicy maps flag values to policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (want always or none)", s)
	}
}

// Options shape a store.
type Options struct {
	// Sync is the journal fsync policy (default SyncAlways).
	Sync SyncPolicy
	// CompactEvery triggers a snapshot + journal truncation after
	// this many appended records (0 = 256; negative = never).
	CompactEvery int
}

// File names inside a state directory.
const (
	JournalFile  = "journal.log"
	SnapshotFile = "snapshot.json"
)

// Store is a journal plus its compacted snapshot. It keeps the folded
// State in memory: every Append both writes the frame and applies the
// record, so Snapshot is always self-contained.
type Store struct {
	dir       string
	opts      Options
	f         *os.File
	state     *State
	sinceSnap int
	// goodOff is the file offset just past the last fully written
	// frame. A failed append rolls the file back here so later frames
	// never land after torn bytes (replay truncates at the first torn
	// frame and would silently drop everything behind it).
	goodOff int64
	// wedged is set when that rollback itself failed: the file may end
	// in garbage, so the store refuses further appends rather than
	// write records a restart could never replay. Stored atomically so
	// a health scrape can read it without racing an in-flight append.
	wedged atomic.Pointer[wedgeCause]
	// baseSeq is the sequence number the snapshot covers: records with
	// Seq ≤ baseSeq are no longer in the journal file. RecordsAfter
	// uses it to tell a lagging reader it must resync from a snapshot
	// instead of catching up frame by frame.
	baseSeq uint64
	// testWrite, when set, replaces the journal write — tests use it
	// to inject partial (torn) writes.
	testWrite func(f *os.File, b []byte) (int, error)
	// testCrashAfterSnapshotRename, when set, aborts Compact right
	// after the snapshot rename (and directory fsync) but before the
	// journal truncation — the crash point where a restart sees a
	// snapshot at Seq N next to a journal still holding records ≤ N.
	testCrashAfterSnapshotRename func() error

	// ops counts journal activity. The store itself is single-threaded
	// (the controller serializes appends under its mutex), but a
	// telemetry scrape reads these from another goroutine, so they are
	// atomics rather than plain fields.
	ops struct {
		appends      atomic.Uint64
		appendErrors atomic.Uint64
		fsyncs       atomic.Uint64
		compactions  atomic.Uint64
		rollbacks    atomic.Uint64
	}
	// seq mirrors state.Seq for lock-free scraping.
	seq atomic.Uint64

	// rec, when set, receives flight-recorder events for rollbacks and
	// wedges — the two faults an operator wants a timeline for.
	rec *telemetry.Recorder
}

// SetRecorder attaches a flight recorder; journal rollbacks and wedge
// transitions are recorded as events from then on.
func (s *Store) SetRecorder(r *telemetry.Recorder) { s.rec = r }

func (s *Store) record(typ, detail string) {
	if s.rec != nil {
		s.rec.Record(typ, "journal", detail, s.dir)
	}
}

// Open loads (or initializes) a store in dir. The directory must
// exist. A torn or corrupt journal tail is truncated at the last
// valid record; a corrupt snapshot is an error (it was written
// atomically, so corruption means real damage, not a crash artifact).
func Open(dir string, opts Options) (*Store, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: state dir: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("journal: state dir %s is not a directory", dir)
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 256
	}
	s := &Store{dir: dir, opts: opts, state: NewState()}

	snapPath := filepath.Join(dir, SnapshotFile)
	if data, rerr := os.ReadFile(snapPath); rerr == nil {
		if err := json.Unmarshal(data, s.state); err != nil {
			return nil, fmt.Errorf("journal: corrupt snapshot %s: %v", snapPath, err)
		}
		if s.state.Deployments == nil {
			s.state.Deployments = make(map[string]*DeploymentRecord)
		}
		if s.state.PlatformDown == nil {
			s.state.PlatformDown = make(map[string]bool)
		}
		// Snapshots written before term-history tracking carry only the
		// current term; seed its entry so TermAt can answer for the
		// live term at least.
		if s.state.Term > 0 && s.state.TermStarts == nil {
			s.state.TermStarts = map[uint64]uint64{s.state.Term: s.state.TermStart}
		}
		s.baseSeq = s.state.Seq
	} else if !os.IsNotExist(rerr) {
		return nil, fmt.Errorf("journal: %w", rerr)
	}

	jpath := filepath.Join(dir, JournalFile)
	recs, valid, err := ReplayFile(jpath, s.state.Seq)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		s.state.Apply(r)
	}
	s.sinceSnap = len(recs)

	f, err := os.OpenFile(jpath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// Drop the torn tail so new frames append after the last valid
	// record, not after garbage.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	s.goodOff = valid
	s.seq.Store(s.state.Seq)
	return s, nil
}

// wedgeCause wraps the wedging error for atomic storage.
type wedgeCause struct{ err error }

// Wedged reports whether the store has refused service after a failed
// rollback, and why. Nil means the store is healthy. Safe to call from
// any goroutine — the health endpoint polls it.
func (s *Store) Wedged() error {
	if c := s.wedged.Load(); c != nil {
		return c.err
	}
	return nil
}

// Dir returns the state directory.
func (s *Store) Dir() string { return s.dir }

// Seq returns the last applied sequence number. It reads the atomic
// mirror, so concurrent observers (telemetry, replication lag probes,
// tests) never race with an in-flight append.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// State returns a copy of the folded state (see State.Clone).
func (s *Store) State() *State { return s.state.Clone() }

// Append assigns the next sequence number, writes the frame (fsync
// per policy), folds the record into the state and compacts when the
// journal has grown past CompactEvery records. It implements the
// controller's Journal interface.
func (s *Store) Append(r Record) error {
	if s.f == nil {
		return fmt.Errorf("journal: store is closed")
	}
	if err := s.Wedged(); err != nil {
		return fmt.Errorf("journal: store failed: %w", err)
	}
	r.Seq = s.state.Seq + 1
	frame, err := EncodeRecord(r)
	if err != nil {
		return err
	}
	return s.commitFrame(frame, r)
}

// IngestFrame appends an already-encoded frame verbatim — the
// follower-mode write path. A standby receives frames from the leader
// byte-identical to the leader's journal file, so ingesting them
// unmodified keeps the two files (and their CRCs) byte-identical too.
// r is the frame's one record, as the caller decoded it (DecodeAll);
// it must carry the next expected sequence number, or the frame is
// rejected before touching the file.
func (s *Store) IngestFrame(frame []byte, r Record) error {
	if s.f == nil {
		return fmt.Errorf("journal: store is closed")
	}
	if err := s.Wedged(); err != nil {
		return fmt.Errorf("journal: store failed: %w", err)
	}
	if want := s.state.Seq + 1; r.Seq != want {
		return fmt.Errorf("journal: ingest: out-of-order frame seq %d (want %d)", r.Seq, want)
	}
	return s.commitFrame(frame, r)
}

// commitFrame writes an encoded frame, fsyncs per policy, folds the
// record into the state and compacts when due. Shared by Append
// (leader/single) and IngestFrame (standby).
func (s *Store) commitFrame(frame []byte, r Record) error {
	if _, werr := s.write(frame); werr != nil {
		// A partial write leaves torn bytes at the offset; roll the
		// file back to the last good frame boundary so a later append
		// (or a stale-Seq duplicate of this one) never lands after
		// garbage, where replay would silently drop it.
		s.ops.appendErrors.Add(1)
		s.rollback(werr)
		return werr
	}
	if s.opts.Sync == SyncAlways {
		if serr := s.f.Sync(); serr != nil {
			// The frame may or may not be on disk; either way the file
			// cursor moved past it while state.Seq did not, so the next
			// append would write a duplicate Seq that replay rejects.
			// Roll back to the good boundary before reporting failure.
			s.ops.appendErrors.Add(1)
			s.rollback(serr)
			return serr
		}
		s.ops.fsyncs.Add(1)
	}
	s.goodOff += int64(len(frame))
	s.state.Apply(r)
	s.ops.appends.Add(1)
	s.seq.Store(r.Seq)
	s.sinceSnap++
	if s.opts.CompactEvery > 0 && s.sinceSnap >= s.opts.CompactEvery {
		return s.Compact()
	}
	return nil
}

// ErrCompacted reports that requested records have been folded into
// the snapshot and are no longer individually available; the reader
// must resync from a full snapshot instead.
var ErrCompacted = fmt.Errorf("journal: records compacted into snapshot")

// RecordsAfter returns the journal records with Seq > after, reading
// the journal file through an independent handle (the append cursor is
// untouched). Returns ErrCompacted when the requested range has been
// folded into the snapshot — the caller must ship a snapshot instead.
// The caller must hold the same serialization appends run under.
func (s *Store) RecordsAfter(after uint64) ([]Record, error) {
	if s.f == nil {
		return nil, fmt.Errorf("journal: store is closed")
	}
	if after < s.baseSeq {
		return nil, ErrCompacted
	}
	if after >= s.state.Seq {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(s.dir, JournalFile))
	if err != nil {
		return nil, err
	}
	recs, _ := DecodeAll(data, after)
	return recs, nil
}

// ResetTo discards the store's state and journal, replacing them with
// the given folded state: the snapshot is rewritten atomically and the
// journal truncated. A standby uses this when the leader's history has
// been compacted past the standby's position (or the standby holds a
// forked suffix from a deposed term) and frame-by-frame catch-up is
// impossible.
func (s *Store) ResetTo(st *State) error {
	if s.f == nil {
		return fmt.Errorf("journal: store is closed")
	}
	if err := s.Wedged(); err != nil {
		return fmt.Errorf("journal: store failed: %w", err)
	}
	s.state = st.Clone()
	if s.state.Deployments == nil {
		s.state.Deployments = make(map[string]*DeploymentRecord)
	}
	if s.state.PlatformDown == nil {
		s.state.PlatformDown = make(map[string]bool)
	}
	s.seq.Store(s.state.Seq)
	return s.Compact()
}

// write appends raw bytes at the journal cursor. testWrite, when set,
// lets tests simulate a torn write (part of the buffer lands on disk,
// then an error).
func (s *Store) write(b []byte) (int, error) {
	if s.testWrite != nil {
		return s.testWrite(s.f, b)
	}
	return s.f.Write(b)
}

// rollback restores the journal file to the last good frame boundary
// after a failed append. If the truncate or seek itself fails the
// store wedges — it refuses further appends, because anything written
// past the leftover garbage would be unrecoverable on replay.
func (s *Store) rollback(cause error) {
	s.ops.rollbacks.Add(1)
	s.record("journal-rollback", cause.Error())
	if err := s.f.Truncate(s.goodOff); err != nil {
		c := &wedgeCause{err: fmt.Errorf("append failed (%v) and truncate to last good offset %d failed (%v)", cause, s.goodOff, err)}
		s.wedged.Store(c)
		s.record("journal-wedged", c.err.Error())
		return
	}
	if _, err := s.f.Seek(s.goodOff, 0); err != nil {
		c := &wedgeCause{err: fmt.Errorf("append failed (%v) and seek to last good offset %d failed (%v)", cause, s.goodOff, err)}
		s.wedged.Store(c)
		s.record("journal-wedged", c.err.Error())
	}
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Compact writes the folded state as a snapshot (atomic: temp file +
// fsync + rename + directory fsync) and truncates the journal. A
// crash between the two leaves a snapshot at Seq N plus journal
// records ≤ N, which replay skips; the directory fsync orders the
// rename before the truncation, so a crash can never pair the
// truncated journal with the pre-rename snapshot.
func (s *Store) Compact() error {
	if s.f == nil {
		return fmt.Errorf("journal: store is closed")
	}
	if err := s.Wedged(); err != nil {
		return fmt.Errorf("journal: store failed: %w", err)
	}
	data, err := json.MarshalIndent(s.state, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, SnapshotFile+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, SnapshotFile)); err != nil {
		os.Remove(tmpName)
		return err
	}
	if s.opts.Sync == SyncAlways {
		// The rename's directory entry must be durable before the
		// journal shrinks: otherwise a crash could surface the old (or
		// no) snapshot next to an already-truncated journal, losing the
		// compacted state.
		if err := syncDir(s.dir); err != nil {
			return err
		}
	}
	if s.testCrashAfterSnapshotRename != nil {
		if err := s.testCrashAfterSnapshotRename(); err != nil {
			return err
		}
	}
	if err := s.f.Truncate(0); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, 0); err != nil {
		return err
	}
	if s.opts.Sync == SyncAlways {
		if err := s.f.Sync(); err != nil {
			return err
		}
		s.ops.fsyncs.Add(1)
	}
	s.goodOff = 0
	s.sinceSnap = 0
	s.baseSeq = s.state.Seq
	s.ops.compactions.Add(1)
	return nil
}

// Close releases the journal file handle. The store must not be used
// afterwards (a crashed controller's store is closed, then a fresh
// Open replays the directory).
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
