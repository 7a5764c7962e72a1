package controller

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/topology"
)

const mirrorConfig = `
in :: FromNetfront();
f :: IPFilter(allow udp);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`

// journaledController builds a fig3 controller backed by a store in a
// temp dir, returning both plus the dir for reopening.
func journaledController(t *testing.T) (*Controller, *journal.Store, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	c := newController(t)
	c.AttachJournal(store)
	return c, store, dir
}

// restoreFrom reopens the state dir and rebuilds a controller.
func restoreFrom(t *testing.T, dir string, inv Inventory) (*Controller, *RecoveryReport, *journal.Store) {
	t.Helper()
	store, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	c, rep, err := Restore(topo, operatorHTTPPolicy, Options{}, store.State(), inv, store)
	if err != nil {
		t.Fatal(err)
	}
	return c, rep, store
}

// depKey renders the deployment facts the acceptance criterion calls
// out: set membership, status and address allocation.
func depKey(d *Deployment) string {
	return fmt.Sprintf("%s tenant=%s module=%s platform=%s addr=%d sandboxed=%v status=%s",
		d.ID, d.Tenant, d.ModuleName, d.Platform, d.Addr, d.Sandboxed, d.Status())
}

func snapshotDeployments(c *Controller) []string {
	var out []string
	for _, d := range c.Deployments() {
		out = append(out, depKey(d))
	}
	return out
}

func TestRestoreRebuildsIdenticalState(t *testing.T) {
	c, _, dir := journaledController(t)
	// One deployment with tenant requirements (its name is referenced
	// by batcherRequirements, so it keeps the canonical name) plus
	// three requirement-free mirrors.
	if _, err := c.Deploy(batcherRequest()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		req := Request{
			Tenant:     fmt.Sprintf("tenant%d", i),
			ModuleName: fmt.Sprintf("Mirror%d", i),
			Config:     mirrorConfig,
			Trust:      security.ThirdParty,
		}
		if _, err := c.Deploy(req); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	// A rejection and a kill must both survive in the counters.
	if _, err := c.Deploy(Request{Tenant: "x", ModuleName: "dup", Config: "nonsense("}); err == nil {
		t.Fatal("bad config deployed")
	}
	if err := c.Kill("pm-2"); err != nil {
		t.Fatal(err)
	}
	want := snapshotDeployments(c)

	rc, rep, _ := restoreFrom(t, dir, nil)
	got := snapshotDeployments(rc)
	if len(want) != len(got) {
		t.Fatalf("deployment sets differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("deployment %d differs:\nwant %s\ngot  %s", i, want[i], got[i])
		}
	}
	if len(rep.Reattached) != 3 || len(rep.Replaced) != 0 || len(rep.Failed) != 0 {
		t.Errorf("recovery report: %+v", rep)
	}
	if w, g := c.State(), rc.State(); g.Placed != w.Placed || g.Rejections != w.Rejections ||
		g.Migrations != w.Migrations || g.FailedMigrations != w.FailedMigrations {
		t.Errorf("counters differ: want %d/%d/%d/%d got %d/%d/%d/%d",
			w.Placed, w.Rejections, w.Migrations, w.FailedMigrations,
			g.Placed, g.Rejections, g.Migrations, g.FailedMigrations)
	}
	if _, ok := rc.Get("pm-2"); ok {
		t.Error("killed pm-2 resurrected by recovery")
	}
	// New deploys must not collide with recovered IDs.
	nd, err := rc.Deploy(Request{Tenant: "late", ModuleName: "late", Config: mirrorConfig, Trust: security.ThirdParty})
	if err != nil {
		t.Fatal(err)
	}
	if _, dup := c.Get(nd.ID); dup {
		t.Errorf("recovered controller reissued ID %s", nd.ID)
	}
}

// staticInventory says a fixed set of platform/addr pairs survived.
type staticInventory map[string]bool

func (si staticInventory) HasModule(platform string, addr uint32) bool {
	return si[fmt.Sprintf("%s/%d", platform, addr)]
}

func TestRestoreReplacesVanishedPlatform(t *testing.T) {
	c, _, dir := journaledController(t)
	d1, err := c.Deploy(Request{Tenant: "a", ModuleName: "m1", Config: mirrorConfig, Trust: security.ThirdParty})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Deploy(Request{Tenant: "b", ModuleName: "m2", Config: mirrorConfig, Trust: security.ThirdParty})
	if err != nil {
		t.Fatal(err)
	}

	// m1's platform vanished; m2 survived in place.
	inv := staticInventory{fmt.Sprintf("%s/%d", d2.Platform, d2.Addr): true}
	rc, rep, _ := restoreFrom(t, dir, inv)
	if len(rep.Replaced) != 1 || rep.Replaced[0] != d1.ID {
		t.Fatalf("recovery report: %+v", rep)
	}
	r1, ok := rc.Get(d1.ID)
	if !ok {
		t.Fatal("m1 lost")
	}
	if r1.Status() != StatusActive {
		t.Errorf("replaced m1 status = %s", r1.Status())
	}
	r2, _ := rc.Get(d2.ID)
	if r2 == nil || r2.Platform != d2.Platform || r2.Addr != d2.Addr {
		t.Errorf("re-attached m2 moved: %+v", r2)
	}
	// The re-placement must not collide with the re-attached module.
	if r1.Platform == r2.Platform && r1.Addr == r2.Addr {
		t.Errorf("recovery double-allocated %s addr %d", r1.Platform, r1.Addr)
	}
	if g, w := rc.State().Migrations, c.State().Migrations+1; g != w {
		t.Errorf("Migrations = %d, want %d", g, w)
	}
	// The re-placement was journaled: a second recovery round-trips.
	rc2, rep2, _ := restoreFrom(t, dir, nil)
	rr1, ok := rc2.Get(d1.ID)
	if !ok || rr1.Platform != r1.Platform || rr1.Addr != r1.Addr {
		t.Errorf("second recovery diverged: %+v", rr1)
	}
	if len(rep2.Replaced) != 0 {
		t.Errorf("second recovery re-placed again: %+v", rep2)
	}
}

func TestRecoveryReplacementHonorsRequirements(t *testing.T) {
	c, _, dir := journaledController(t)
	d, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	// §4.5: the Batcher's reach requirement only holds on Platform3 —
	// Platforms 1 and 2 are not reachable from the outside.
	if d.Platform != "Platform3" {
		t.Fatalf("batcher placed on %s, want Platform3", d.Platform)
	}

	// The module vanished from its platform. Recovery iterates the
	// platforms in order, so without re-running the placement-dependent
	// checks it would land the Batcher on Platform1, where its own
	// requirements (and thus the admission decision the client paid
	// for) do not hold.
	rc, rep, _ := restoreFrom(t, dir, staticInventory{})
	if len(rep.Replaced) != 1 || rep.Replaced[0] != d.ID {
		t.Fatalf("recovery report: %+v", rep)
	}
	rd, ok := rc.Get(d.ID)
	if !ok {
		t.Fatal("batcher lost")
	}
	if rd.Platform != "Platform3" {
		t.Errorf("recovery re-placed the batcher on %s, where its requirements do not hold; want Platform3", rd.Platform)
	}
	if rd.Status() != StatusActive {
		t.Errorf("status = %s, want active", rd.Status())
	}
}

func TestRestoreKeepsFailedFailed(t *testing.T) {
	c, _, dir := journaledController(t)
	d, err := c.Deploy(Request{Tenant: "a", ModuleName: "m1", Config: mirrorConfig, Trust: security.ThirdParty})
	if err != nil {
		t.Fatal(err)
	}
	// Every platform dies: failover has nowhere to go.
	for _, pl := range []string{"Platform1", "Platform2", "Platform3"} {
		c.MarkPlatformDown(pl)
	}
	_, failed := c.Failover(d.Platform)
	if len(failed) != 1 {
		t.Fatalf("failover failed set = %d, want 1", len(failed))
	}

	// Recovery must not silently resurrect it via placement-only
	// re-placement — failed deployments wait for RetryFailed's full
	// verification.
	rc, rep, _ := restoreFrom(t, dir, staticInventory{})
	if len(rep.Failed) != 1 {
		t.Fatalf("recovery report: %+v", rep)
	}
	rd, ok := rc.Get(d.ID)
	if !ok {
		t.Fatal("failed deployment dropped")
	}
	if rd.Status() != StatusFailed {
		t.Errorf("status = %s, want failed", rd.Status())
	}
	// Platform health survived too; bring one back and retry.
	health := rc.PlatformHealth()
	for pl, up := range health {
		if up {
			t.Errorf("platform %s recovered as up", pl)
		}
	}
	rc.MarkPlatformUp("Platform1")
	if rec := rc.RetryFailed(); len(rec) != 1 {
		t.Errorf("RetryFailed recovered %d, want 1", len(rec))
	}
}

func TestAdmissionBudgetRejectsNotHangs(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithOptions(topo, "", Options{AdmissionSteps: 20})
	if err != nil {
		t.Fatal(err)
	}
	req := batcherRequest()
	start := time.Now()
	_, err = c.Deploy(req)
	if err == nil {
		t.Fatal("deploy succeeded under a 50-step budget")
	}
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("budget exhaustion is %T (%v), want *RejectionError", err, err)
	}
	if !strings.Contains(rej.Reason, "admission budget exceeded") {
		t.Errorf("reason = %q", rej.Reason)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("budgeted deploy took %v", elapsed)
	}
	if n := c.State().Rejections; n != 1 {
		t.Errorf("Rejections = %d", n)
	}
	// ErrBudget must be detectable for API mapping.
	if !errors.Is(fmt.Errorf("wrap: %w", symexec.ErrBudget), symexec.ErrBudget) {
		t.Error("ErrBudget not wrappable")
	}
}

func TestQueryBudgetRejects(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithOptions(topo, "", Options{AdmissionSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query("reach from internet tcp -> client")
	if err == nil {
		t.Skip("query finished inside 2 steps") // topology-dependent
	}
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("budget exhaustion is %T, want *RejectionError", err)
	}
}

func TestJournalAppendFailureBlocksAdmissionAndKill(t *testing.T) {
	c := newController(t)
	c.AttachJournal(failingJournal{})
	if _, err := c.Deploy(batcherRequest()); err == nil {
		t.Fatal("deploy succeeded with a failing journal")
	}
	if len(c.Deployments()) != 0 {
		t.Error("unjournaled deployment visible")
	}
}

type failingJournal struct{}

func (failingJournal) Append(journal.Record) error { return errors.New("disk full") }
