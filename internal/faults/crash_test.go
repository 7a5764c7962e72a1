package faults

import (
	"testing"

	"github.com/in-net/innet/internal/controller"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
)

// A controller crash-and-recover mid-run must be invisible: the
// recovered deployment set, statuses and address allocations — and
// every workload counter — match a never-crashed run with the same
// seeds byte for byte.
func TestControllerCrashByteIdenticalToUncrashedRun(t *testing.T) {
	base, _ := chaosRun(t, 11, 42)
	crashed, _ := chaosRunIn(t, 11, 42, t.TempDir(),
		[]netsim.Time{3 * netsim.Second}, 0)
	if crashed.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", crashed.Recoveries)
	}
	if len(crashed.Errs) != 0 {
		t.Fatalf("recovery errors: %v", crashed.Errs)
	}
	if got, want := crashed.Summary(), base.Summary(); got != want {
		t.Errorf("crash-recover run diverged from uncrashed run:\n--- uncrashed\n%s--- crashed\n%s", want, got)
	}
}

// A crash during the platform outage window exercises recovery while
// part of the fleet is degraded and the platform-health state matters.
func TestControllerCrashDuringOutageByteIdentical(t *testing.T) {
	base, _ := chaosRun(t, 11, 42)
	// The outage lands in [1s, 2s) and lasts 500ms; 1.9s is inside it
	// for this seed (asserted below via the outage counter).
	crashed, _ := chaosRunIn(t, 11, 42, t.TempDir(),
		[]netsim.Time{netsim.Millis(1900)}, 0)
	if crashed.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", crashed.Recoveries)
	}
	if len(crashed.Errs) != 0 {
		t.Fatalf("recovery errors: %v", crashed.Errs)
	}
	if got, want := crashed.Summary(), base.Summary(); got != want {
		t.Errorf("outage-window crash diverged:\n--- uncrashed\n%s--- crashed\n%s", want, got)
	}
}

// When a module's platform registration vanished while the controller
// was down, recovery re-runs the placement step only and moves the
// dataplane: the module gets a new home, traffic follows it there.
func TestControllerCrashReplacesVanishedModule(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClusterWithState(7, topo, operatorHTTPPolicy, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		if _, err := cl.Deploy(controller.Request{
			Tenant:     "t" + string(rune('a'+i)),
			ModuleName: "m" + string(rune('a'+i)),
			Config:     chaosStateless,
			Trust:      security.ThirdParty,
		}); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	victim := cl.dep(0)
	survivor := cl.dep(1)
	// The host lost the module while the controller was down.
	cl.Platform(victim.Platform).Unregister(victim.Addr)

	cl.CrashController()
	if len(cl.Errs) != 0 {
		t.Fatalf("recovery errors: %v", cl.Errs)
	}
	if cl.Recoveries != 1 {
		t.Fatalf("Recoveries = %d", cl.Recoveries)
	}
	rv, ok := cl.Ctl.Get(victim.ID)
	if !ok {
		t.Fatal("victim deployment lost")
	}
	if rv.Status() != controller.StatusActive {
		t.Errorf("victim status = %s", rv.Status())
	}
	// Placement may legitimately hand back the just-vacated address;
	// what must have happened is a re-placement (a recovery migration)
	// that re-registered the module on its platform.
	if n := cl.Ctl.State().Migrations; n != 1 {
		t.Errorf("Migrations = %d, want 1 (recovery re-placement)", n)
	}
	if !cl.Platform(rv.Platform).HasModule(rv.Addr) {
		t.Error("re-placed module not registered on its platform")
	}
	rs, _ := cl.Ctl.Get(survivor.ID)
	if rs == nil || rs.Platform != survivor.Platform || rs.Addr != survivor.Addr {
		t.Errorf("survivor moved: %+v", rs)
	}
	// Traffic reaches both modules at their post-recovery homes.
	before := cl.Received
	cl.Sim.At(cl.Sim.Now()+netsim.Millis(1), func() {
		cl.Send(0, probe(1))
		cl.Send(1, probe(2))
	})
	cl.Sim.Run()
	if cl.Received != before+2 {
		t.Errorf("received %d probes after recovery, want 2\n%s", cl.Received-before, cl.Summary())
	}
}

// Seeded controller-crash faults inside a full chaos run: the
// accounting identity holds, nothing is lost, and two identical seeds
// still produce byte-identical outcomes.
func TestChaosWithControllerCrashFaults(t *testing.T) {
	a, pa := chaosRunIn(t, 11, 42, t.TempDir(), nil, 2)
	b, pb := chaosRunIn(t, 11, 42, t.TempDir(), nil, 2)
	if pa.Signature() != pb.Signature() {
		t.Fatal("same plan seed, different fault schedules")
	}
	if a.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want 2", a.Recoveries)
	}
	if len(a.Errs) != 0 {
		t.Errorf("recovery errors: %v", a.Errs)
	}
	total := a.Received + a.DroppedTotal() + uint64(a.Buffered())
	if a.Sent != total {
		t.Errorf("accounting broken: sent=%d accounted=%d\n%s", a.Sent, total, a.Summary())
	}
	if a.Summary() != b.Summary() {
		t.Errorf("same seeds, divergent outcomes:\n--- run A\n%s--- run B\n%s",
			a.Summary(), b.Summary())
	}
	// The deployment set survives every crash.
	for m := 0; m < chaosModules; m++ {
		d := a.dep(m)
		if d == nil {
			t.Fatalf("module %d lost its deployment", m)
		}
		if d.Status() != controller.StatusActive {
			t.Errorf("module %d status = %s", m, d.Status())
		}
	}
}

// Without a state dir the fault degrades gracefully: it is recorded,
// not fatal.
func TestControllerCrashWithoutStateDirIsRecorded(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(3, topo, operatorHTTPPolicy)
	if err != nil {
		t.Fatal(err)
	}
	cl.CrashController()
	if cl.Recoveries != 0 {
		t.Errorf("Recoveries = %d", cl.Recoveries)
	}
	if len(cl.Errs) != 1 {
		t.Errorf("Errs = %v", cl.Errs)
	}
}
