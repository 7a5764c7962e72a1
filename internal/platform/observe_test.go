package platform

import (
	"reflect"
	"testing"

	"github.com/in-net/innet/internal/click"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// parityConfig gives a sampled packet every kind of fate: forwarded
// across a branch, dropped by an element's decision (filter, no_route,
// discard), dropped off an unwired port, parked in a queue.
const parityConfig = `
in :: FromNetfront();
chk :: CheckIPHeader;
f :: IPFilter(deny tcp, allow all);
cls :: IPClassifier(udp dst port 53, udp dst port 80, icmp);
ttl :: DecIPTTL;
tu :: TimedUnqueue(1);
out0 :: ToNetfront(0);
out1 :: ToNetfront(1);
d :: Discard;
in -> chk -> f -> cls;
chk[1] -> d;
cls[0] -> ttl -> out0;
cls[1] -> out1;
cls[2] -> tu -> out0;
`

// TestPathTraceParity samples every flow (TraceEvery=1) through both
// dataplanes of the same config and packets: the two must record the
// same hops — element, ports and the verdict with the element's real
// drop reason — and differ only in the dataplane tag.
func TestPathTraceParity(t *testing.T) {
	const dst = "198.51.100.77"
	mk := func(mut func(*packet.Packet)) *packet.Packet {
		pk := udp(dst)
		mut(pk)
		return pk
	}
	pkts := func() []*packet.Packet {
		return []*packet.Packet{
			mk(func(pk *packet.Packet) { pk.DstPort = 53 }),                // ttl -> tx:0
			mk(func(pk *packet.Packet) { pk.DstPort = 80 }),                // tx:1
			mk(func(pk *packet.Packet) { pk.DstPort = 53; pk.TTL = 1 }),    // ttl[1]: drop:unwired
			mk(func(pk *packet.Packet) { pk.TTL = 0 }),                     // chk[1] -> d: drop:discard
			mk(func(pk *packet.Packet) { pk.Protocol = packet.ProtoTCP }),  // drop:filter
			mk(func(pk *packet.Packet) { pk.DstPort = 9 }),                 // drop:no_route
			mk(func(pk *packet.Packet) { pk.Protocol = packet.ProtoICMP }), // queued
		}
	}
	wantLast := []string{"tx:0", "tx:1", "drop:unwired", "drop:discard", "drop:filter", "drop:no_route", "queued"}

	run := func(noPipeline bool) []telemetry.PathTrace {
		sim := netsim.New(1)
		p := newPlatform(sim)
		p.TraceEvery = 1
		addr := packet.MustParseIP(dst)
		if err := p.Register(ModuleSpec{Addr: addr, Config: parityConfig, NoPipeline: noPipeline}); err != nil {
			t.Fatal(err)
		}
		for _, pk := range pkts() {
			p.Deliver(pk, func(int, *packet.Packet) {})
			sim.Run()
		}
		traces := p.PathTraces(addr, 0)
		if len(traces) != len(wantLast) {
			t.Fatalf("noPipeline=%v: got %d traces, want %d", noPipeline, len(traces), len(wantLast))
		}
		return traces
	}
	compiled, graph := run(false), run(true)
	for i := range compiled {
		c, g := compiled[i], graph[i]
		if c.Dataplane != "pipeline" || g.Dataplane != "graph" {
			t.Fatalf("dataplane tags: %q / %q", c.Dataplane, g.Dataplane)
		}
		if c.FlowHash != g.FlowHash || !reflect.DeepEqual(c.Hops, g.Hops) {
			t.Errorf("trace %d differs:\n pipeline: %+v\n graph:    %+v", i, c.Hops, g.Hops)
		}
		// Traces come back newest first.
		want := wantLast[len(wantLast)-1-i]
		last := g.Hops[len(g.Hops)-1]
		if last.Verdict != want || last.Elem == "" {
			t.Errorf("trace %d ends in %+v, want verdict %q at a named element", i, last, want)
		}
	}
}

// TestPathTraceKnobs: negative disables, module knob overrides the
// platform default.
func TestPathTraceKnobs(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	p.TraceEvery = -1 // platform-wide off
	offAddr := packet.MustParseIP("198.51.100.1")
	onAddr := packet.MustParseIP("198.51.100.2")
	if err := p.Register(ModuleSpec{Addr: offAddr, Config: passthrough}); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(ModuleSpec{Addr: onAddr, Config: passthrough, TraceEvery: 1}); err != nil {
		t.Fatal(err)
	}
	out := func(int, *packet.Packet) {}
	for i := 0; i < 2; i++ {
		p.Deliver(udp("198.51.100.1"), out)
		p.Deliver(udp("198.51.100.2"), out)
		sim.Run()
	}
	if got := p.PathTraces(offAddr, 0); len(got) != 0 {
		t.Fatalf("disabled module captured %d traces", len(got))
	}
	if got := p.PathTraces(onAddr, 0); len(got) != 2 {
		t.Fatalf("opted-in module captured %d traces, want 2", len(got))
	}
}

// TestPathRingSurvivesVMChurn: traces captured before a crash are
// still readable after the respawned guest captures more.
func TestPathRingSurvivesVMChurn(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	p.TraceEvery = 1
	rec := telemetry.NewRecorder(16)
	p.Rec = rec
	addr := packet.MustParseIP("198.51.100.77")
	if err := p.Register(ModuleSpec{Addr: addr, Config: statefulChain}); err != nil {
		t.Fatal(err)
	}
	out := func(int, *packet.Packet) {}
	p.Deliver(udp("198.51.100.77"), out)
	sim.Run()
	if !p.CrashVM(addr) {
		t.Fatal("no VM to crash")
	}
	sim.Run() // respawn fires
	p.Deliver(udp("198.51.100.77"), out)
	sim.Run()
	if got := len(p.PathTraces(addr, 0)); got != 2 {
		t.Fatalf("got %d traces across the crash, want 2", got)
	}
	// The flight recorder saw the crash and the respawn, in order.
	var crashSeq, respawnSeq uint64
	for _, ev := range rec.Recent(0) {
		switch ev.Type {
		case "vm-crash":
			crashSeq = ev.Seq
			if ev.Detail != "crash" || ev.Ref != "198.51.100.77" {
				t.Fatalf("crash event wrong: %+v", ev)
			}
		case "vm-respawn":
			respawnSeq = ev.Seq
		}
	}
	if crashSeq == 0 || respawnSeq == 0 || respawnSeq < crashSeq {
		t.Fatalf("event order: crash=%d respawn=%d", crashSeq, respawnSeq)
	}
}

// TestPlatformDropAttribution wires the platform into a Drops hub and
// checks pipeline filter drops and platform datapath drops both show
// up under their sites.
func TestPlatformDropAttribution(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	d := telemetry.NewDrops()
	p.RegisterDrops(d, nil)
	rec := telemetry.NewRecorder(16)
	p.Rec = rec
	addr := packet.MustParseIP("198.51.100.77")
	if err := p.Register(ModuleSpec{Addr: addr, Config: statefulChain}); err != nil {
		t.Fatal(err)
	}
	out := func(int, *packet.Packet) {}
	// RateLimiter(3) admits 3, then drops with reason "filter".
	for i := 0; i < 5; i++ {
		p.Deliver(udp("198.51.100.77"), out)
		sim.Run()
	}
	// And one packet for nobody at all.
	p.Deliver(udp("203.0.113.9"), out)
	sim.Run()
	snap := d.Snapshot()
	filtered := snap["pipeline"]["filter"]
	if filtered < 1 {
		t.Fatalf("pipeline/filter drops = %d, want >=1 (snapshot %v)", filtered, snap)
	}
	if got := snap["platform"]["no_module"]; got != 1 {
		t.Fatalf("platform/no_module drops = %d, want 1", got)
	}
	if by := p.PipelineDrops(); by[click.DropFilter] != filtered {
		t.Fatalf("PipelineDrops = %v, hub saw %d", by, filtered)
	}
	// Retirement keeps the per-reason sums monotonic across a crash.
	p.CrashVM(addr)
	if by := p.PipelineDrops(); by[click.DropFilter] != filtered {
		t.Fatalf("PipelineDrops after crash = %v, want %d", by, filtered)
	}
}
