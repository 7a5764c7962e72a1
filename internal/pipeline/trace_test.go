package pipeline

import (
	"sync/atomic"
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// compileString builds a config into an Exec, failing the test on
// error.
func compileString(t *testing.T, src string) *Exec {
	t.Helper()
	r, err := CompileConfig(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return NewExec(r)
}

func TestPathTraceLinearChain(t *testing.T) {
	x := compileString(t, `
in :: FromNetfront();
chk :: CheckIPHeader();
cnt :: Counter();
ttl :: DecIPTTL();
out :: ToNetfront();
in -> chk -> cnt -> ttl -> out;
`)
	var tx int
	x.Transmit = func(iface int, _ *packet.Packet) { tx++ }
	ring := telemetry.NewPathRing(8, nil)
	x.EnablePathTrace(ring, 1) // every flow sampled

	if err := x.RunOne(0, mkPacket(1, 0)); err != nil {
		t.Fatal(err)
	}
	traces := ring.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.FlowHash == 0 {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	wantElems := []string{"in", "chk", "cnt", "ttl", "out"}
	if len(tr.Hops) != len(wantElems) {
		t.Fatalf("got %d hops %+v, want %d", len(tr.Hops), tr.Hops, len(wantElems))
	}
	for i, h := range tr.Hops {
		if h.Elem != wantElems[i] {
			t.Fatalf("hop[%d].Elem = %q, want %q", i, h.Elem, wantElems[i])
		}
		if i < len(tr.Hops)-1 && (h.Verdict != "forward" || h.OutPort != 0) {
			t.Fatalf("hop[%d] = %+v, want forward on port 0", i, h)
		}
	}
	if last := tr.Hops[len(tr.Hops)-1]; last.Verdict != "tx:0" {
		t.Fatalf("terminal verdict = %q, want tx:0", last.Verdict)
	}
	if tx != 1 {
		t.Fatalf("traced packet not transmitted (tx=%d)", tx)
	}
	// The traced packet updated element state exactly once.
	if x.Packets != 1 || x.Drops != 0 {
		t.Fatalf("counters: packets=%d drops=%d", x.Packets, x.Drops)
	}
}

func TestPathTraceUnwiredBranch(t *testing.T) {
	x := compileString(t, `
in :: FromNetfront();
ttl :: DecIPTTL();
out :: ToNetfront();
in -> ttl -> out;
`)
	ring := telemetry.NewPathRing(8, nil)
	x.EnablePathTrace(ring, 1)
	exp := mkPacket(3, 0)
	exp.TTL = 1 // expires at DecIPTTL; port 1 unwired → drop
	if err := x.RunOne(0, exp); err != nil {
		t.Fatal(err)
	}
	tr := ring.Recent(1)[0]
	// One hop per step: the element that chose the port, the port it
	// chose, and the fact that it leads nowhere.
	if len(tr.Hops) != 2 {
		t.Fatalf("hops: %+v", tr.Hops)
	}
	if h := tr.Hops[1]; h.Elem != "ttl" || h.OutPort != 1 || h.Verdict != "drop:unwired" {
		t.Fatalf("drop hop wrong: %+v", h)
	}
	if x.DropsBy[click.DropUnwired] != 1 || x.Drops != 1 {
		t.Fatalf("drop attribution: DropsBy=%v Drops=%d", x.DropsBy, x.Drops)
	}
}

func TestPathTraceDiscardAttribution(t *testing.T) {
	x := compileString(t, `
in :: FromNetfront();
dsc :: Discard();
in -> dsc;
`)
	ring := telemetry.NewPathRing(8, nil)
	x.EnablePathTrace(ring, 1)
	if err := x.RunOne(0, mkPacket(4, 0)); err != nil {
		t.Fatal(err)
	}
	tr := ring.Recent(1)[0]
	last := tr.Hops[len(tr.Hops)-1]
	if last.Elem != "dsc" || last.Verdict != "drop:discard" {
		t.Fatalf("discard hop wrong: %+v", last)
	}
	if x.DropsBy[click.DropDiscard] != 1 {
		t.Fatalf("DropsBy = %v, want one discard", x.DropsBy)
	}
}

func TestPathTraceBranch(t *testing.T) {
	x := compileString(t, `
in :: FromNetfront();
cls :: IPClassifier(udp dst port 80, -);
out0 :: ToNetfront(0);
out1 :: ToNetfront(1);
in -> cls;
cls[0] -> out0;
cls[1] -> out1;
`)
	var lastIface int
	x.Transmit = func(iface int, _ *packet.Packet) { lastIface = iface }
	ring := telemetry.NewPathRing(8, nil)
	x.EnablePathTrace(ring, 1)
	pk := mkPacket(1, 0)
	pk.DstPort = 80
	if err := x.RunOne(0, pk); err != nil {
		t.Fatal(err)
	}
	tr := ring.Recent(1)[0]
	wantElems := []string{"in", "cls", "out0"}
	if len(tr.Hops) != len(wantElems) {
		t.Fatalf("hops: %+v", tr.Hops)
	}
	for i, h := range tr.Hops {
		if h.Elem != wantElems[i] {
			t.Fatalf("hop[%d] = %+v, want elem %q", i, h, wantElems[i])
		}
	}
	if tr.Hops[1].OutPort != 0 || tr.Hops[1].Verdict != "forward" {
		t.Fatalf("classifier hop wrong: %+v", tr.Hops[1])
	}
	if tr.Hops[2].Verdict != "tx:0" || lastIface != 0 {
		t.Fatalf("egress hop wrong: %+v (iface %d)", tr.Hops[2], lastIface)
	}
}

func TestPathTraceSamplingDeterministic(t *testing.T) {
	src := `
in :: FromNetfront();
out :: ToNetfront();
in -> out;
`
	x := compileString(t, src)
	x.Transmit = func(int, *packet.Packet) {}
	ring := telemetry.NewPathRing(8, nil)

	// Find a rate the test flow's hash misses, then prove it is never
	// sampled; at a matching rate it always is.
	pk := mkPacket(7, 0)
	h := AffinityHash(pk.Tuple())
	miss := 0
	for e := 2; e < 64; e++ {
		if h%uint64(e) != 0 {
			miss = e
			break
		}
	}
	x.EnablePathTrace(ring, miss)
	for i := 0; i < 10; i++ {
		if err := x.RunOne(0, mkPacket(7, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ring.Recent(0)); got != 0 {
		t.Fatalf("unsampled flow produced %d traces", got)
	}
	x.EnablePathTrace(ring, 1)
	for i := 0; i < 3; i++ {
		if err := x.RunOne(0, mkPacket(7, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ring.Recent(0)); got != 3 {
		t.Fatalf("sampled flow produced %d traces, want 3", got)
	}
}

// TestExecPathTraceMerge traces through several Execs whose rings
// share one sequence counter; MergeRecent interleaves them newest first.
func TestExecPathTraceMerge(t *testing.T) {
	src := `
in :: FromNetfront();
cnt :: Counter();
out :: ToNetfront();
in -> cnt -> out;
`
	seq := new(atomic.Uint64)
	xs := make([]*Exec, 4)
	rings := make([]*telemetry.PathRing, len(xs))
	for i := range xs {
		xs[i] = compileString(t, src)
		xs[i].Transmit = func(int, *packet.Packet) {}
		rings[i] = telemetry.NewPathRing(32, seq)
		xs[i].EnablePathTrace(rings[i], 1)
	}
	for i := 0; i < 32; i++ {
		if err := xs[i%len(xs)].RunOne(0, mkPacket(uint32(i+1), 0)); err != nil {
			t.Fatal(err)
		}
	}
	merged := telemetry.MergeRecent(0, rings...)
	if len(merged) != 32 {
		t.Fatalf("merged %d traces, want 32", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Seq <= merged[i].Seq {
			t.Fatalf("merge not newest-first at %d: %d then %d", i, merged[i-1].Seq, merged[i].Seq)
		}
	}
}

func TestAffinityHashSymmetric(t *testing.T) {
	for i := 0; i < 1000; i++ {
		tup := packet.FiveTuple{
			SrcIP:    0x0a000000 + uint32(i*2654435761),
			DstIP:    0xc0000200 + uint32(i*40503),
			SrcPort:  uint16(1024 + i),
			DstPort:  uint16(80 + i%7),
			Protocol: packet.ProtoUDP,
		}
		if AffinityHash(tup) != AffinityHash(tup.Reverse()) {
			t.Fatalf("hash not symmetric for %v", tup)
		}
	}
}
