package faults

import (
	"fmt"
	"strings"
	"testing"

	"github.com/in-net/innet/internal/controller"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
)

const operatorHTTPPolicy = `
reach from internet tcp src port 80 -> HTTPOptimizer -> client
`

// Mirror-style chaos modules: every udp probe in yields exactly one
// packet out, so workload accounting is exact. Half the fleet carries
// a FlowMeter, exercising the stateful checkpoint/restore paths.
const chaosStateless = `
in :: FromNetfront();
f :: IPFilter(allow udp);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`

const chaosStateful = `
in :: FromNetfront();
f :: IPFilter(allow udp);
fm :: FlowMeter();
mir :: IPMirror();
out :: ToNetfront();
in -> f -> fm -> mir -> out;
`

const (
	chaosModules = 8
	probesPerMod = 100
	chaosHorizon = 4 * netsim.Second
)

var (
	probeSpacing   = netsim.Millis(40)
	checkpointEach = netsim.Millis(250)
)

func probe(flow int) *packet.Packet {
	return &packet.Packet{
		Protocol: packet.ProtoUDP,
		SrcIP:    packet.MustParseIP("8.8.8.8"),
		DstIP:    0, // Cluster.Send resolves the module's current address
		SrcPort:  uint16(10000 + flow),
		DstPort:  53,
		TTL:      64,
		Payload:  make([]byte, 100),
	}
}

// chaosRun builds a Fig.3 cluster, deploys the module fleet, arms a
// seeded fault plan plus a Fig.5-style probe workload, runs the
// simulation to quiescence and returns the cluster and plan.
func chaosRun(t *testing.T, clusterSeed, planSeed int64) (*Cluster, *Plan) {
	t.Helper()
	return chaosRunIn(t, clusterSeed, planSeed, "", nil, 0)
}

// chaosRunIn is chaosRun with controller persistence: a non-empty
// stateDir journals every controller transition there, crashAt kills
// and recovers the controller at fixed virtual times, and
// controllerCrashes adds seeded crash faults to the generated plan.
func chaosRunIn(t *testing.T, clusterSeed, planSeed int64, stateDir string, crashAt []netsim.Time, controllerCrashes int) (*Cluster, *Plan) {
	t.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClusterWithState(clusterSeed, topo, operatorHTTPPolicy, stateDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	for i := 0; i < chaosModules; i++ {
		cfg := chaosStateless
		if i%2 == 1 {
			cfg = chaosStateful
		}
		idx, err := cl.Deploy(controller.Request{
			Tenant:     fmt.Sprintf("tenant%d", i),
			ModuleName: fmt.Sprintf("chaos%d", i),
			Config:     cfg,
			Trust:      security.ThirdParty,
		})
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		if idx != i {
			t.Fatalf("module index %d != %d", idx, i)
		}
	}

	// Probe workload: staggered per module so arrivals interleave.
	for m := 0; m < chaosModules; m++ {
		m := m
		for k := 0; k < probesPerMod; k++ {
			k := k
			at := netsim.Time(k)*probeSpacing + netsim.Time(m)*netsim.Millis(1) + netsim.Millis(1)
			cl.Sim.At(at, func() { cl.Send(m, probe(m*probesPerMod+k)) })
		}
	}

	cl.ScheduleCheckpoints(checkpointEach, chaosHorizon)

	plan := Generate(planSeed, Config{
		Horizon:           chaosHorizon,
		VMCrashes:         6,
		BootFails:         2,
		Modules:           chaosModules,
		Platforms:         []string{"Platform1"},
		Outage:            true,
		OutageDuration:    netsim.Millis(500),
		LossBursts:        1,
		LossBurstLoss:     0.3,
		LossBurstDuration: netsim.Millis(200),
		ControllerCrashes: controllerCrashes,
	})
	plan.Schedule(cl.Sim, cl)
	for _, at := range crashAt {
		cl.Sim.At(at, cl.CrashController)
	}

	// One late probe per module proves eventual recovery end to end.
	var beforeFinal uint64
	cl.Sim.At(chaosHorizon+netsim.Second, func() { beforeFinal = cl.Received + cl.DroppedTotal() })
	for m := 0; m < chaosModules; m++ {
		m := m
		cl.Sim.At(chaosHorizon+netsim.Second, func() { cl.Send(m, probe(90000+m)) })
	}

	cl.Sim.Run()

	// Every in-horizon packet must be accounted before the late
	// probes fire: delivered, dropped or still buffered at that
	// instant — and the late probes themselves must all arrive (all
	// fault windows are long over).
	if lateSent := uint64(chaosModules); cl.Received+cl.DroppedTotal() < beforeFinal+lateSent {
		t.Errorf("late probes lost: received+dropped=%d, before=%d",
			cl.Received+cl.DroppedTotal(), beforeFinal)
	}
	return cl, plan
}

func TestChaosSeededRecovery(t *testing.T) {
	cl, _ := chaosRun(t, 11, 42)

	// No silent loss: every workload packet is delivered, counted in
	// an explicit drop counter, or still parked in a bounded buffer.
	total := cl.Received + cl.DroppedTotal() + uint64(cl.Buffered())
	if cl.Sent != total {
		t.Errorf("accounting broken: sent=%d but received+dropped+buffered=%d\n%s",
			cl.Sent, total, cl.Summary())
	}
	// Loss is bounded by the injected fault windows, not unbounded.
	if cl.DroppedTotal() > cl.Sent/4 {
		t.Errorf("dropped %d of %d sent — recovery not bounding loss\n%s",
			cl.DroppedTotal(), cl.Sent, cl.Summary())
	}
	// At quiescence nothing is stuck in a buffer.
	if cl.Buffered() != 0 {
		t.Errorf("%d packets still buffered at quiescence\n%s", cl.Buffered(), cl.Summary())
	}
	// Every recovery action succeeded and every deployment is back.
	if len(cl.Errs) != 0 {
		t.Errorf("recovery errors: %v", cl.Errs)
	}
	for m := 0; m < chaosModules; m++ {
		d := cl.dep(m)
		if d == nil {
			t.Fatalf("module %d lost its deployment", m)
		}
		if d.Status() != controller.StatusActive {
			t.Errorf("module %d status = %s", m, d.Status())
		}
	}
	// The plan actually exercised the machinery.
	sum := cl.Summary()
	p1 := cl.Platform("Platform1")
	if p1.Outages != 1 {
		t.Errorf("Platform1 outages = %d\n%s", p1.Outages, sum)
	}
	if cl.Ctl.State().Migrations == 0 {
		t.Errorf("no migrations despite a platform outage\n%s", sum)
	}
	crashes := uint64(0)
	for _, name := range cl.platformNames() {
		crashes += cl.Platform(name).Crashes
	}
	if crashes == 0 {
		t.Errorf("no VM crashes landed\n%s", sum)
	}
}

func TestChaosSameSeedByteIdentical(t *testing.T) {
	a, pa := chaosRun(t, 11, 42)
	b, pb := chaosRun(t, 11, 42)
	if pa.Signature() != pb.Signature() {
		t.Fatal("same plan seed, different fault schedules")
	}
	if a.Summary() != b.Summary() {
		t.Errorf("same seeds, divergent outcomes:\n--- run A\n%s--- run B\n%s",
			a.Summary(), b.Summary())
	}
}

func TestChaosDifferentSeedsDivergeButReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	seen := map[string]int64{}
	for _, seed := range []int64{1, 2, 3} {
		a, pa := chaosRun(t, seed, seed*100)
		b, pb := chaosRun(t, seed, seed*100)
		if pa.Signature() != pb.Signature() || a.Summary() != b.Summary() {
			t.Fatalf("seed %d not reproducible", seed)
		}
		if prev, dup := seen[pa.Signature()]; dup {
			t.Errorf("seeds %d and %d produced identical fault schedules", prev, seed)
		}
		seen[pa.Signature()] = seed
		// Each sweep run must also hold the no-silent-loss invariant.
		total := a.Received + a.DroppedTotal() + uint64(a.Buffered())
		if a.Sent != total {
			t.Errorf("seed %d accounting broken: sent=%d accounted=%d\n%s",
				seed, a.Sent, total, a.Summary())
		}
		if len(a.Errs) != 0 {
			t.Errorf("seed %d recovery errors: %v", seed, a.Errs)
		}
	}
}

func TestClusterSummaryShape(t *testing.T) {
	cl, _ := chaosRun(t, 11, 42)
	sum := cl.Summary()
	for _, want := range []string{"sent=", "platform Platform1:", "platform Platform2:", "platform Platform3:", "deployment pm-"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
