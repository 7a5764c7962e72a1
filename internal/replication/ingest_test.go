package replication

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/topology"
)

// ingestTypes are the record types FuzzStandbyIngest draws from.
var ingestTypes = []journal.EventType{
	journal.EvAdmit, journal.EvMigrate, journal.EvKill, journal.EvMigrateFailed,
	journal.EvPlatformDown, journal.EvPlatformUp, journal.EvReject, journal.EvTerm,
}

// ingestRecord decodes one fuzz op into a record for the frame after
// seq: op picks the type (its top bit shifts the sequence number off
// by one either way, a gap or a duplicate); a picks the ID and
// address; b whether an admit or migrate carries its record, which
// config it deploys (one that builds, one that does not, the opaque
// empty one) and which platform it names.
func ingestRecord(op, a, b byte, seq uint64) journal.Record {
	r := journal.Record{
		Type:     ingestTypes[int(op&0x7f)%len(ingestTypes)],
		Seq:      seq + 1,
		ID:       fmt.Sprintf("pm-%d", a%4+1),
		Platform: []string{"Platform1", "Platform2", "Platform3", "Nowhere"}[(b>>4)%4],
		Term:     uint64(a % 5),
	}
	if op&0x80 != 0 {
		r.Seq = seq + 2 - 2*uint64(a%2)
	}
	if (r.Type == journal.EvAdmit || r.Type == journal.EvMigrate) && b&1 == 1 {
		r.Dep = &journal.DeploymentRecord{
			ID: r.ID, Tenant: "t", ModuleName: r.ID, Platform: r.Platform,
			Addr:   0x0ac80100 + uint32(a%8),
			Config: []string{testModule, "in :: NoSuchElement();", ""}[int(b>>1)%3],
			Status: journal.StatusActive,
		}
	}
	return r
}

// FuzzStandbyIngest feeds a standby arbitrary decodable frames —
// admits and migrates without a record, configs that do not build,
// kills and migrates of absent IDs, platform health flips in any
// order, gaps and duplicates. Ingest must never panic; after every
// frame the store's fold and the controller's state agree, and a frame
// the standby refuses changes neither.
func FuzzStandbyIngest(f *testing.F) {
	f.Add([]byte{0, 1, 1})                            // admit
	f.Add([]byte{0, 1, 0})                            // admit without its record
	f.Add([]byte{0, 1, 3, 0, 2, 3})                   // admit, then one that does not build
	f.Add([]byte{1, 3, 0, 1, 3, 1, 2, 3, 0})          // migrate without a record, of an absent ID, kill absent
	f.Add([]byte{0, 0, 0x11, 4, 0, 0x10, 3, 0, 0})    // admit on Platform2, down, failed migration
	f.Add([]byte{5, 0, 0x20, 4, 0, 0x20, 0, 2, 5})    // up before down
	f.Add([]byte{0x80, 1, 1, 0, 1, 1, 0x80, 0, 1})    // duplicate, admit, gap
	f.Add([]byte{7, 3, 0, 0, 2, 1, 6, 0, 0, 2, 2, 0}) // term, admit, reject, kill
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := topology.PaperFig3()
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := controller.New(topo, "")
		if err != nil {
			t.Fatal(err)
		}
		store, err := journal.Open(t.TempDir(), journal.Options{Sync: journal.SyncNone, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		n, err := NewNode(store, ctl, Config{Role: controller.RoleStandby})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+3 <= len(data); i += 3 {
			rec := ingestRecord(data[i], data[i+1], data[i+2], store.Seq())
			frame, err := journal.EncodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			storeBefore, ctlBefore := store.State().Canonical(), ctl.State().Canonical()
			_, err = n.ingestFrame(frame)
			ok := err == nil
			storeAfter, ctlAfter := store.State().Canonical(), ctl.State().Canonical()
			if !bytes.Equal(storeAfter, ctlAfter) {
				t.Fatalf("frame %d (%+v, ok=%t): store and controller diverge:\n--- store ---\n%s\n--- controller ---\n%s", i/3, rec, ok, storeAfter, ctlAfter)
			}
			if !ok && (!bytes.Equal(storeBefore, storeAfter) || !bytes.Equal(ctlBefore, ctlAfter)) {
				t.Fatalf("frame %d (%+v): refused, yet it changed the state", i/3, rec)
			}
			if got, want := len(ctl.Deployments()), len(ctl.State().Deployments); got != want {
				t.Fatalf("frame %d (%+v): controller lists %d deployments, its state holds %d", i/3, rec, got, want)
			}
		}
	})
}
