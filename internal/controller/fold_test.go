package controller

import (
	"bytes"
	"testing"

	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/topology"
)

// The controller has one transition function (applyLocked) behind
// three callers: the live mutators, the standby's ApplyRecord and the
// state loader Restore and ResetToState share. FuzzControllerFold
// drives mutationScript against a journaled leader and checks that
// every path to controller state agrees with the journal's own fold
// (journal.State.Apply, the independent oracle):
//
//   - the leader itself,
//   - a twin fed each appended record through ApplyRecord,
//   - a controller after ResetToState(store.State()),
//   - Restore(..., store.State(), nil, nil),
//   - store.State().

// foldHarness is a journaled leader whose records are teed into a
// standby twin.
type foldHarness struct {
	leader, twin *Controller
	store        *journal.Store
}

func newFoldHarness(t *testing.T) *foldHarness {
	t.Helper()
	store, err := journal.Open(t.TempDir(), journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	h := &foldHarness{leader: newController(t), twin: newController(t), store: store}
	h.leader.AttachJournal(teeJournal{t: t, store: store, twin: h.twin})
	return h
}

// teeJournal appends to the store, then hands the record, with its
// assigned Seq, to the twin's standby catch-up path.
type teeJournal struct {
	t     *testing.T
	store *journal.Store
	twin  *Controller
}

func (j teeJournal) Append(r journal.Record) error {
	if err := j.store.Append(r); err != nil {
		return err
	}
	r.Seq = j.store.Seq()
	if err := j.twin.ApplyRecord(r); err != nil {
		j.t.Errorf("twin apply seq %d: %v", r.Seq, err)
	}
	return nil
}

// foldState projects a controller's state onto journal.State so it
// compares byte for byte with the journal's fold.
func foldState(c *Controller) *journal.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := journal.NewState()
	for id, d := range c.deployments {
		st.Deployments[id] = depRecord(d)
	}
	for name, down := range c.platformDown {
		st.PlatformDown[name] = down
	}
	st.NextID = c.nextID
	st.Placed, st.Rejections = c.Placed, c.Rejections
	st.Migrations, st.FailedMigrations = c.Migrations, c.FailedMigrations
	return st
}

// checkFold asserts the five views of h's history are identical.
func checkFold(t *testing.T, h *foldHarness) {
	t.Helper()
	st := h.store.State()
	reset := newController(t)
	if err := reset.ResetToState(st); err != nil {
		t.Fatal(err)
	}
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := Restore(topo, operatorHTTPPolicy, Options{}, st, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Canonical()
	for _, v := range []struct {
		name string
		c    *Controller
	}{{"leader", h.leader}, {"ApplyRecord twin", h.twin}, {"ResetToState", reset}, {"Restore", restored}} {
		if got := foldState(v.c).Canonical(); !bytes.Equal(got, want) {
			t.Errorf("%s state differs from the journal fold:\n--- journal ---\n%s\n--- %s ---\n%s", v.name, want, v.name, got)
		}
	}
}

func FuzzControllerFold(f *testing.F) {
	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed, uint8(24))
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops uint8) {
		h := newFoldHarness(t)
		mutationScript(h.leader, seed, int(ops))
		checkFold(t, h)
	})
}

// RetryFailed marks the failed copy migrating, which takes it off the
// network and releases its address, so a module retried onto its
// recovered platform gets its own address back.
func TestRetryFailedReusesOwnAddress(t *testing.T) {
	h := newFoldHarness(t)
	c := h.leader
	dep, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	c.MarkPlatformDown(dep.Platform)
	if _, failed := c.Failover(dep.Platform); len(failed) != 1 {
		t.Fatalf("failover failed %d deployments, want 1 (no verified alternate)", len(failed))
	}
	c.MarkPlatformUp(dep.Platform)
	got := c.RetryFailed()
	if len(got) != 1 || got[0].Platform != dep.Platform || got[0].Addr != dep.Addr {
		t.Fatalf("retry = %+v, want %s back on %s at its own address %d", got, dep.ID, dep.Platform, dep.Addr)
	}
	checkFold(t, h)
}
