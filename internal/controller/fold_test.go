package controller

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/platform"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
	"github.com/in-net/innet/internal/vswitch"
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
// embedding the state's record up to the status, which it carries
// live. After every op, the simulated dataplane a reconciler keeps for
// the leader and for the twin must hold exactly the state's on-network
// set: each deployment that is not failed, on its platform at its
// address with its config, and nothing else.

// foldHarness is a journaled leader whose records are teed into a
// standby twin.
type foldHarness struct {
	leader, twin     *Controller
	store            *journal.Store
	leaderDP, twinDP *dataplane
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
	h.leaderDP, h.twinDP = watchDataplane(t, h.leader), watchDataplane(t, h.twin)
	return h
}

// dataplane is a reconciler over one simulated platform and vswitch
// per topology platform, watching a controller.
type dataplane struct {
	platforms map[string]*platform.Platform
	switches  map[string]*vswitch.Switch
}

func watchDataplane(t *testing.T, c *Controller) *dataplane {
	dp := &dataplane{platforms: make(map[string]*platform.Platform), switches: make(map[string]*vswitch.Switch)}
	sim := newSim()
	for _, name := range c.topo.Platforms() {
		dp.platforms[name] = platform.New(sim, platform.DefaultModel(), 16*1024)
		dp.switches[name] = vswitch.New()
	}
	recon := platform.NewReconciler(dp.platforms, dp.switches)
	c.Watch(func(st *journal.State) {
		if err := recon.Reconcile(st); err != nil {
			t.Errorf("reconcile: %v", err)
		}
	})
	return dp
}

// diff lists where the dataplane departs from c's on-network set: a
// deployment that is not failed but whose platform holds no module at
// its address, or one with another config; or more modules or rules
// than there are such deployments.
func (dp *dataplane) diff(c *Controller) string {
	var b strings.Builder
	live, st := 0, c.State()
	for _, id := range st.IDs() {
		rec := st.Deployments[id]
		if rec.Status == journal.StatusFailed {
			continue
		}
		live++
		if spec, ok := dp.platforms[rec.Platform].Spec(rec.Addr); !ok || spec.Config != rec.Config {
			fmt.Fprintf(&b, "%s: %s at %s holds %+v (ok=%t), want its config\n", id, rec.Platform, packet.IPString(rec.Addr), spec, ok)
		}
	}
	modules, rules := 0, 0
	for name, p := range dp.platforms {
		modules += p.RegisteredModules()
		rules += dp.switches[name].Rules()
	}
	if modules != live || rules != live {
		fmt.Fprintf(&b, "%d modules and %d rules for %d deployments on the network\n", modules, rules, live)
	}
	return b.String()
}

// checkDataplanes asserts that the leader's and the twin's dataplanes
// hold their states' on-network sets.
func checkDataplanes(t *testing.T, h *foldHarness, op int) {
	t.Helper()
	for _, v := range []struct {
		name string
		c    *Controller
		dp   *dataplane
	}{{"leader", h.leader, h.leaderDP}, {"ApplyRecord twin", h.twin, h.twinDP}} {
		if diff := v.dp.diff(v.c); diff != "" {
			t.Errorf("after op %d, the %s dataplane departs from its state:\n%s", op, v.name, diff)
		}
	}
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
	if err := j.twin.ApplyRecord(r, nil); err != nil {
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
	if err := reset.ResetToState(st, nil); err != nil {
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
// folded state: an ID only one of them holds, or an entry whose record,
// with its live status, is not the state's. A status sweep replaces the
// state's record but not the entry's, so only the status may differ.
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
		got, want := *d.DeploymentRecord, *c.state.Deployments[id]
		got.Status = d.Status().String()
		if !reflect.DeepEqual(got, want) {
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
		mutationScriptOps(h.leader, seed, int(ops), true, func(op int) { checkDataplanes(t, h, op) })
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
	if err := c.ResetToState(st, nil); err == nil {
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

// One record per placement: Deploy and Failover commit the record the
// deployment embeds, and the leader's state, the store's state and the
// standby twin's state and side-table all hold that one record.
func TestPlacementCommitsItsOwnRecord(t *testing.T) {
	h := newFoldHarness(t)
	dep, err := h.leader.Deploy(Request{Tenant: "bob", ModuleName: "dns", Stock: StockGeoDNS, Trust: security.ThirdParty})
	if err != nil {
		t.Fatal(err)
	}
	checkSharedRecord(t, h, dep)
	h.leader.MarkPlatformDown(dep.Platform)
	migrated, _ := h.leader.Failover(dep.Platform)
	if len(migrated) != 1 {
		t.Fatalf("failover migrated %d deployments, want 1", len(migrated))
	}
	checkSharedRecord(t, h, migrated[0].To)
	checkFold(t, h)
}

// checkSharedRecord asserts that the record d embeds is the one h's
// leader and store hold for it, and that the twin's state holds the
// record its own deployment embeds.
func checkSharedRecord(t *testing.T, h *foldHarness, d *Deployment) {
	t.Helper()
	rec := d.DeploymentRecord
	if got := h.leader.State().Deployments[d.ID]; got != rec {
		t.Errorf("%s: the leader's state holds %p, the deployment %p", d.ID, got, rec)
	}
	if got := h.store.State().Deployments[d.ID]; got != rec {
		t.Errorf("%s: the store's state holds %p, the deployment %p", d.ID, got, rec)
	}
	twin, ok := h.twin.Get(d.ID)
	if !ok {
		t.Fatalf("%s: the twin does not hold it", d.ID)
	}
	if got := h.twin.State().Deployments[d.ID]; got != twin.DeploymentRecord {
		t.Errorf("%s: the twin's state holds %p, its deployment %p", d.ID, got, twin.DeploymentRecord)
	}
}

// State copies share records with the live state, so a reader may
// marshal its copy while status sweeps run: a sweep replaces the
// records it changes rather than writing them. Run with -race.
func TestStateCopiesSurviveSweeps(t *testing.T) {
	h := newFoldHarness(t)
	c := h.leader
	dep, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(Request{Tenant: "bob", ModuleName: "dns", Stock: StockGeoDNS, Trust: security.ThirdParty}); err != nil {
		t.Fatal(err)
	}
	copies := make(chan *journal.State, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for st := range copies {
			for _, s := range []*journal.State{st, c.State()} {
				if _, err := json.Marshal(s); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	for i := 0; i < 50; i++ {
		c.MarkPlatformDown(dep.Platform)
		copies <- h.store.State()
		c.MarkPlatformUp(dep.Platform)
		copies <- h.store.State()
	}
	close(copies)
	<-done
	checkFold(t, h)
}
