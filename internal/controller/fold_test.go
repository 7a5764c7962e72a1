package controller

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/topology"
)

// The controller has one transition function (applyLocked: the
// journal's own fold, journal.State.Apply, plus a mirror into the
// runtime side-table) behind three callers: the live mutators, the
// standby's ApplyRecord and the state loader Restore and ResetToState
// share. FuzzControllerFold drives mutationScript, with the
// health-only ops that leave deployments degraded, against a journaled
// leader and checks every path to controller state against the
// store's fold:
//
//   - the leader itself,
//   - a twin fed each appended record through ApplyRecord,
//   - a controller after ResetToState(store.State()),
//   - Restore(..., store.State(), nil, nil).
//
// Each controller's State() must equal store.State(), and its
// side-table must hold exactly the state's deployment IDs, each
// rendering (depRecord) to the state's record.

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

// checkFold asserts the four controllers of h's history agree with
// the journal's fold, state and side-table alike.
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
		if got := v.c.State().Canonical(); !bytes.Equal(got, want) {
			t.Errorf("%s state differs from the journal fold:\n--- journal ---\n%s\n--- %s ---\n%s", v.name, want, v.name, got)
		}
		if diff := sideTableDiff(v.c); diff != "" {
			t.Errorf("%s side-table differs from its own state:\n%s", v.name, diff)
		}
	}
}

// sideTableDiff lists where c's runtime side-table departs from its
// folded state: an ID only one of them holds, or an entry that renders
// to a record other than the state's.
func sideTableDiff(c *Controller) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	for _, id := range c.state.IDs() {
		d, ok := c.deployments[id]
		if !ok {
			fmt.Fprintf(&b, "%s: in the state only\n", id)
			continue
		}
		if got, want := *depRecord(d), *c.state.Deployments[id]; !reflect.DeepEqual(got, want) {
			fmt.Fprintf(&b, "%s: side-table %+v, state %+v\n", id, got, want)
		}
	}
	for id := range c.deployments {
		if _, ok := c.state.Deployments[id]; !ok {
			fmt.Fprintf(&b, "%s: in the side-table only\n", id)
		}
	}
	return b.String()
}

func FuzzControllerFold(f *testing.F) {
	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed, uint8(24))
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops uint8) {
		h := newFoldHarness(t)
		mutationScriptOps(h.leader, seed, int(ops), true, nil)
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

// Loading a state is all or nothing: one record whose config does not
// build fails ResetToState and Restore, and the live controller keeps
// exactly what it had — the same state and the same deployments, each
// with its status.
func TestLoadStateIsAllOrNothing(t *testing.T) {
	h := newFoldHarness(t)
	mutationScriptOps(h.leader, 5, 24, true, nil)
	c := h.twin
	if len(c.Deployments()) == 0 {
		t.Fatal("script left no deployments to keep")
	}
	wantState := c.State().Canonical()
	wantDeps := c.Deployments()
	wantStatus := make([]DeploymentStatus, len(wantDeps))
	for i, d := range wantDeps {
		wantStatus[i] = d.Status()
	}

	st := h.store.State()
	st.Deployments["pm-999"] = &journal.DeploymentRecord{
		ID: "pm-999", ModuleName: "broken", Platform: "Platform1", Addr: 1,
		Config: "in :: NoSuchElement();", Status: journal.StatusActive,
	}
	st.NextID = 999
	if err := c.ResetToState(st); err == nil {
		t.Error("ResetToState loaded a record whose config does not build")
	}
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	if rc, _, err := Restore(topo, operatorHTTPPolicy, Options{}, st, nil, nil); err == nil || rc != nil {
		t.Errorf("Restore = %v, %v; want no controller and the build error", rc, err)
	}

	if got := c.State().Canonical(); !bytes.Equal(got, wantState) {
		t.Errorf("failed ResetToState changed the state:\n--- before ---\n%s\n--- after ---\n%s", wantState, got)
	}
	got := c.Deployments()
	if len(got) != len(wantDeps) {
		t.Fatalf("failed ResetToState left %d deployments, want %d", len(got), len(wantDeps))
	}
	for i, d := range got {
		if d != wantDeps[i] || d.Status() != wantStatus[i] {
			t.Errorf("deployment %d is %s (%s), want the same %s (%s)", i, d.ID, d.Status(), wantDeps[i].ID, wantStatus[i])
		}
	}
	if diff := sideTableDiff(c); diff != "" {
		t.Errorf("side-table differs from the state after a failed load:\n%s", diff)
	}
}
