package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
)

// egress is one observed transmission or drop, with enough of the
// packet to detect any byte-level divergence.
type egress struct {
	iface int // -1 for drops
	snap  string
}

func snapPacket(pk *packet.Packet) string {
	return fmt.Sprintf("%s ttl=%d tos=%d paint=%d tag=%d seq=%d payload=%q",
		pk.Tuple(), pk.TTL, pk.TOS, pk.Paint, pk.FlowTag, pk.Seq, pk.Payload)
}

// step is one unit of differential input: a batch injected at a
// source, or a ticker pass, at a given virtual time.
type step struct {
	src  int
	pkts []*packet.Packet
	now  int64
	tick bool
}

// outcome is everything a run lets an observer see: the egress log in
// order, the drop count per taxonomy reason, and how many injections
// were refused (a packet for an injection point the router lacks).
type outcome struct {
	log     []egress
	drops   [click.NumDropReasons]uint64
	refused int
}

func clones(pkts []*packet.Packet) []*packet.Packet {
	out := make([]*packet.Packet, len(pkts))
	for i, pk := range pkts {
		out[i] = pk.Clone()
	}
	return out
}

// runGraph replays steps through Router.Inject and Router.Tick on a
// counting Context: the reference an Exec must equal.
func runGraph(t *testing.T, r *click.Router, steps []step) outcome {
	t.Helper()
	var o outcome
	var now int64
	ctx := &click.Context{
		Now: func() int64 { return now },
		Transmit: func(iface int, pk *packet.Packet) {
			o.log = append(o.log, egress{iface, snapPacket(pk)})
		},
		DropHook: func(r click.DropReason, pk *packet.Packet) {
			o.log = append(o.log, egress{-1, snapPacket(pk)})
			o.drops[r]++
		},
	}
	for _, s := range steps {
		now = s.now
		if s.tick {
			r.Tick(ctx)
			continue
		}
		for _, pk := range clones(s.pkts) {
			if r.Inject(ctx, s.src, pk) != nil {
				o.refused++
			}
		}
	}
	return o
}

// runExec replays steps through an Exec, reading drops from its
// counters.
func runExec(t *testing.T, r *click.Router, steps []step) outcome {
	t.Helper()
	var o outcome
	var now int64
	x := NewExec(r)
	x.Now = func() int64 { return now }
	x.Transmit = func(iface int, pk *packet.Packet) {
		o.log = append(o.log, egress{iface, snapPacket(pk)})
	}
	x.DropHook = func(_ click.DropReason, pk *packet.Packet) {
		o.log = append(o.log, egress{-1, snapPacket(pk)})
	}
	for _, s := range steps {
		now = s.now
		if s.tick {
			x.Tick()
			continue
		}
		if x.Run(s.src, clones(s.pkts)) != nil {
			o.refused += len(s.pkts)
		}
	}
	o.drops = x.DropsBy
	var sum uint64
	for _, n := range x.DropsBy {
		sum += n
	}
	if sum != x.Drops {
		t.Fatalf("DropsBy sums to %d, Drops = %d", sum, x.Drops)
	}
	return o
}

// diffOutcomes demands the Exec's ordering guarantee: identical to the
// bare walk. Every transmission and drop happens in the same global
// order, on the same interface, with identical bytes, and each drop is
// booked under the same reason.
func diffOutcomes(t *testing.T, graph, exec outcome) {
	t.Helper()
	if len(graph.log) != len(exec.log) {
		t.Fatalf("egress count: graph=%d exec=%d", len(graph.log), len(exec.log))
	}
	for i := range graph.log {
		if graph.log[i] != exec.log[i] {
			t.Fatalf("egress[%d]:\n graph: %+v\n exec:  %+v", i, graph.log[i], exec.log[i])
		}
	}
	if graph.drops != exec.drops {
		t.Fatalf("drops by reason %v: graph=%v exec=%v", click.DropReasonNames(), graph.drops, exec.drops)
	}
	if graph.refused != exec.refused {
		t.Fatalf("refused injections: graph=%d exec=%d", graph.refused, exec.refused)
	}
}

// diffCounters compares every exported counter (unsigned integer fields
// and slices of them) of every element pair.
func diffCounters(t *testing.T, graph, exec *click.Router) {
	t.Helper()
	ce := exec.Elements()
	for i, ge := range graph.Elements() {
		gv, cv := reflect.ValueOf(ge).Elem(), reflect.ValueOf(ce[i]).Elem()
		for f := 0; f < gv.NumField(); f++ {
			sf := gv.Type().Field(f)
			k := sf.Type.Kind()
			if k == reflect.Slice {
				k = sf.Type.Elem().Kind()
			}
			if !sf.IsExported() || k != reflect.Uint64 {
				continue
			}
			if g, c := gv.Field(f).Interface(), cv.Field(f).Interface(); !reflect.DeepEqual(g, c) {
				t.Errorf("%s.%s: graph=%v exec=%v", ge.Name(), sf.Name, g, c)
			}
		}
	}
}

// differential builds the config twice (independent element state per
// run), replays the same steps through a counting Context and through
// an Exec, and compares. It returns both routers and the Exec's
// outcome.
func differential(t *testing.T, src string, steps []step) (*click.Router, *click.Router, outcome) {
	t.Helper()
	gr := click.MustBuildString(src)
	xr, err := CompileConfig(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	g := runGraph(t, gr, steps)
	x := runExec(t, xr, steps)
	if len(g.log) == 0 {
		t.Fatalf("differential test saw no egress at all")
	}
	diffOutcomes(t, g, x)
	diffCounters(t, gr, xr)
	return gr, xr, x
}

// mkPacket builds a deterministic test packet for flow f, index i.
func mkPacket(f uint32, i int) *packet.Packet {
	return &packet.Packet{
		SrcIP:    0x0a000000 + f,       // 10.0.0.f
		DstIP:    0xc0000200 + (f % 7), // 192.0.2.x
		SrcPort:  uint16(1024 + f),
		DstPort:  uint16(80 + f%3),
		Protocol: packet.ProtoUDP,
		TTL:      uint8(2 + (i+int(f))%60),
		Payload:  []byte(fmt.Sprintf("f%d-p%d", f, i)),
		UserID:   f,
	}
}

func flowBatch(flows, perFlow int) []*packet.Packet {
	var out []*packet.Packet
	for i := 0; i < perFlow; i++ {
		for f := 0; f < flows; f++ {
			out = append(out, mkPacket(uint32(f+1), i))
		}
	}
	return out
}

func TestDifferentialLinear(t *testing.T) {
	src := `
in :: FromNetfront();
chk :: CheckIPHeader();
cnt :: Counter();
ttl :: DecIPTTL();
out :: ToNetfront();
in -> chk -> cnt -> ttl -> out;
`
	bad := mkPacket(99, 0)
	bad.TTL = 0 // CheckIPHeader drop
	exp := mkPacket(98, 0)
	exp.TTL = 1 // DecIPTTL expiry drop
	steps := []step{{src: 0, pkts: append(flowBatch(8, 16), bad, exp), now: 1000}}
	gr, _, _ := differential(t, src, steps)
	// diffCounters compared every counter; make sure the interesting
	// ones actually moved.
	if gr.Element("cnt").(*elements.Counter).Packets == 0 ||
		gr.Element("chk").(*elements.CheckIPHeader).Drops != 1 ||
		gr.Element("ttl").(*elements.DecIPTTL).Expired == 0 {
		t.Errorf("linear chain counters did not move")
	}
}

// Two branches diverting into one shared Discard, and a join where
// both outputs of one element feed the same successor.
func TestDifferentialSharedSinkAndJoin(t *testing.T) {
	bad := mkPacket(99, 0)
	bad.TTL = 0
	exp := mkPacket(98, 0)
	exp.TTL = 1
	steps := []step{{src: 0, pkts: append(flowBatch(4, 4), bad, exp), now: 7}}
	gr, _, _ := differential(t, `
in :: FromNetfront();
chk :: CheckIPHeader;
pnt :: Paint(7);
ttl :: DecIPTTL;
cnt :: Counter;
out :: ToNetfront();
d :: Discard;
in -> chk -> pnt -> ttl -> cnt -> out;
chk[1] -> d;
ttl[1] -> d;
`, steps)
	if n := gr.Element("d").(*elements.Discard).Count; n < 2 {
		t.Errorf("shared Discard saw %d packets, want >= 2", n)
	}
	differential(t, `
in :: FromNetfront();
chk :: CheckIPHeader;
cnt :: Counter;
out :: ToNetfront();
in -> chk -> cnt -> out;
chk[1] -> cnt;
`, steps)
}

// Two injection points feeding one stateful element on different
// ports: the firewall must see each packet's real arrival port.
func TestDifferentialTwoSourceFirewall(t *testing.T) {
	fwd := flowBatch(4, 2)
	var rep []*packet.Packet
	for _, pk := range fwd[:4] {
		r := pk.Clone()
		r.SrcIP, r.DstIP = pk.DstIP, pk.SrcIP
		r.SrcPort, r.DstPort = pk.DstPort, pk.SrcPort
		rep = append(rep, r)
	}
	rep = append(rep, mkPacket(60, 0)) // no recorded flow: blocked
	differential(t, quickConfig, []step{
		{src: 0, pkts: fwd, now: 1},
		{src: 1, pkts: rep, now: 2},
		{src: 1, pkts: rep, now: 9}, // past the 5ns timeout
	})
}

// The tunnel classes compile now that every class steps the same way.
func TestDifferentialTunnel(t *testing.T) {
	junk := mkPacket(77, 0)
	junk.Payload = []byte{1, 2, 3} // IPDecap cannot parse it
	differential(t, `
in :: FromNetfront();
enc :: UDPIPEncap(10.0.0.1 5000 192.0.2.9 5000);
out :: ToNetfront();
in -> enc -> out;
`, []step{{src: 0, pkts: flowBatch(3, 2), now: 1}})

	var tunneled []*packet.Packet
	for _, pk := range flowBatch(3, 2) {
		outer := pk.Clone()
		outer.Payload = pk.Serialize(nil)
		tunneled = append(tunneled, outer)
	}
	differential(t, `
in :: FromNetfront();
dec :: IPDecap();
out :: ToNetfront();
in -> dec -> out;
`, []step{{src: 0, pkts: append(tunneled, junk), now: 1}})
}

func TestDifferentialClassifierFanout(t *testing.T) {
	src := `
in :: FromNetfront();
cls :: IPClassifier(udp dst port 80, udp dst port 81, -);
c0 :: Counter();
c1 :: Counter();
out0 :: ToNetfront(0);
out1 :: ToNetfront(1);
out2 :: ToNetfront(2);
in -> cls;
cls[0] -> c0 -> out0;
cls[1] -> c1 -> out1;
cls[2] -> out2;
`
	steps := []step{{src: 0, pkts: flowBatch(12, 8), now: 5}}
	differential(t, src, steps)
}

func TestDifferentialFirewallReplay(t *testing.T) {
	// One ingress; a classifier splits outbound (from 10/8) and
	// inbound traffic onto the firewall's two ports, so the batch mixes
	// record-then-reply sequences the firewall must see in batch order.
	src := `
in :: FromNetfront();
dir :: IPClassifier(src net 10.0.0.0/8, -);
fw :: StatefulFirewall(allow udp, timeout 5);
out :: ToNetfront(0);
back :: ToNetfront(1);
in -> dir;
dir[0] -> [0]fw;
dir[1] -> [1]fw;
fw[0] -> out;
fw[1] -> back;
`
	var mixed []*packet.Packet
	for f := uint32(1); f <= 6; f++ {
		fwd := mkPacket(f, 0)
		mixed = append(mixed, fwd)
		rep := fwd.Clone()
		rep.SrcIP, rep.DstIP = fwd.DstIP, fwd.SrcIP
		rep.SrcPort, rep.DstPort = fwd.DstPort, fwd.SrcPort
		rep.Payload = []byte(fmt.Sprintf("rep-f%d", f))
		mixed = append(mixed, rep)
	}
	// An inbound packet with no recorded flow: must be blocked in
	// both modes.
	orphan := mkPacket(50, 0)
	orphan.SrcIP = 0xc0000299
	mixed = append(mixed, orphan)
	steps := []step{
		{src: 0, pkts: mixed, now: 1_000_000_000},
		// Replay the replies much later: the flow timeout (5s) must
		// expire state identically in both modes.
		{src: 0, pkts: mixed, now: 8_000_000_000},
	}
	gr, cr, _ := differential(t, src, steps)
	gf := gr.Element("fw").(interface{ ActiveFlows() int }).ActiveFlows()
	cf := cr.Element("fw").(interface{ ActiveFlows() int }).ActiveFlows()
	if gf != cf {
		t.Errorf("firewall flows: graph=%d exec=%d", gf, cf)
	}
}

func TestDifferentialNAT(t *testing.T) {
	src := `
in :: FromNetfront();
dir :: IPClassifier(dst host 172.16.0.1, -);
nat :: IPRewriter(pattern 172.16.0.1 4000 - - 0 1);
out :: ToNetfront(0);
back :: ToNetfront(1);
in -> dir;
dir[1] -> [0]nat;
dir[0] -> [1]nat;
nat[0] -> out;
nat[1] -> back;
`
	var pkts []*packet.Packet
	for f := uint32(1); f <= 5; f++ {
		fwd := mkPacket(f, 0)
		fwd.DstIP = packet.MustParseIP("198.51.100.7")
		pkts = append(pkts, fwd)
		// The reply the rewritten packet would generate.
		rep := &packet.Packet{
			SrcIP:    fwd.DstIP,
			DstIP:    packet.MustParseIP("172.16.0.1"),
			SrcPort:  fwd.DstPort,
			DstPort:  4000,
			Protocol: packet.ProtoUDP,
			TTL:      64,
			Payload:  []byte(fmt.Sprintf("natrep-f%d", f)),
			UserID:   100 + f,
		}
		pkts = append(pkts, rep)
	}
	steps := []step{{src: 0, pkts: pkts, now: 77}}
	differential(t, src, steps)
}

func TestDifferentialRateAndMeter(t *testing.T) {
	src := `
in :: FromNetfront();
rl :: RateLimiter(4, 4);
m :: Meter(2);
ok :: ToNetfront(0);
over :: ToNetfront(1);
in -> rl -> m;
m[0] -> ok;
m[1] -> over;
`
	steps := []step{
		{src: 0, pkts: flowBatch(3, 2), now: 1_000_000_000},
		{src: 0, pkts: flowBatch(3, 2), now: 1_500_000_000},
		{src: 0, pkts: flowBatch(3, 2), now: 4_000_000_000},
	}
	differential(t, src, steps)
}

func TestDifferentialTimedUnqueueTicks(t *testing.T) {
	src := `
in :: FromNetfront();
tu :: TimedUnqueue(1, 3);
cnt :: Counter();
out :: ToNetfront();
in -> tu -> cnt -> out;
`
	steps := []step{
		{src: 0, pkts: flowBatch(2, 3), now: 1_000_000_000},
		{tick: true, now: 1_500_000_000}, // before interval: nothing
		{tick: true, now: 2_100_000_000}, // release burst of 3
		{tick: true, now: 3_200_000_000}, // release rest
		{src: 0, pkts: flowBatch(1, 1), now: 3_300_000_000},
		{tick: true, now: 9_000_000_000},
	}
	differential(t, src, steps)
}

func TestDifferentialQueueTickDrain(t *testing.T) {
	src := `
in :: FromNetfront();
q :: Queue(4);
out :: ToNetfront();
in -> q -> out;
`
	steps := []step{
		{src: 0, pkts: flowBatch(3, 2), now: 10}, // 6 packets into cap-4 queue: 2 drop
		{tick: true, now: 20},
		{src: 0, pkts: flowBatch(1, 1), now: 30},
		{tick: true, now: 40},
	}
	gr, cr, _ := differential(t, src, steps)
	for _, r := range []*click.Router{gr, cr} {
		if n := r.Element("q").(interface{ Len() int }).Len(); n != 0 {
			t.Errorf("queue not drained: %d", n)
		}
	}
}

func TestDifferentialTeeAndPaint(t *testing.T) {
	src := `
in :: FromNetfront();
tee :: Tee(3);
p1 :: Paint(7);
out0 :: ToNetfront(0);
out1 :: ToNetfront(1);
out2 :: ToNetfront(2);
in -> tee;
tee[0] -> out0;
tee[1] -> p1 -> out1;
tee[2] -> out2;
`
	steps := []step{{src: 0, pkts: flowBatch(4, 4), now: 3}}
	differential(t, src, steps)
}

func TestDifferentialMirrorCRC(t *testing.T) {
	src := `
in :: FromNetfront();
f :: IPFilter(allow udp, deny all);
crc :: SetCRC32();
mir :: IPMirror();
out :: ToNetfront();
in -> f -> crc -> mir -> out;
`
	tcp := mkPacket(42, 0)
	tcp.Protocol = packet.ProtoTCP // denied by the filter
	steps := []step{{src: 0, pkts: append(flowBatch(6, 5), tcp), now: 9}}
	differential(t, src, steps)
}

func TestDifferentialHashSwitchRoute(t *testing.T) {
	src := `
in :: FromNetfront();
hs :: HashSwitch(4);
r0 :: LookupIPRoute(192.0.2.0/24 0, 0.0.0.0/0 1);
out0 :: ToNetfront(0);
out1 :: ToNetfront(1);
out2 :: ToNetfront(2);
out3 :: ToNetfront(3);
outd :: ToNetfront(9);
in -> hs;
hs[0] -> r0;
r0[0] -> out0;
r0[1] -> outd;
hs[1] -> out1;
hs[2] -> out2;
hs[3] -> out3;
`
	steps := []step{{src: 0, pkts: flowBatch(16, 4), now: 1}}
	differential(t, src, steps)
}

func TestDifferentialChangeEnforcer(t *testing.T) {
	src := `
in :: FromNetfront(0);
ret :: FromNetfront(1);
ce :: ChangeEnforcer(whitelist 203.0.113.5, timeout 2);
toMod :: ToNetfront(0);
toWorld :: ToNetfront(1);
in -> [0]ce;
ret -> [1]ce;
ce[0] -> toMod;
ce[1] -> toWorld;
`
	inbound := flowBatch(4, 1)
	var outbound []*packet.Packet
	for _, pk := range inbound {
		rep := pk.Clone()
		rep.SrcIP, rep.DstIP = pk.DstIP, pk.SrcIP
		outbound = append(outbound, rep)
	}
	// One unauthorized destination and one whitelisted one.
	unauth := mkPacket(70, 0)
	unauth.DstIP = packet.MustParseIP("8.8.8.8")
	wl := mkPacket(71, 0)
	wl.DstIP = packet.MustParseIP("203.0.113.5")
	outbound = append(outbound, unauth, wl)
	steps := []step{
		{src: 0, pkts: inbound, now: 1_000_000_000},
		{src: 1, pkts: outbound, now: 2_000_000_000},
		// After the 2s timeout the implicit authorization must lapse
		// in both modes.
		{src: 1, pkts: outbound, now: 9_000_000_000},
	}
	differential(t, src, steps)
}

// sandboxConfig is a module as controller.SandboxConfig wraps it: the
// one ChangeEnforcer is crossed twice, in-port 0 on the way in and
// in-port 1 on the way out, which is a cycle between elements.
const sandboxConfig = `in :: FromNetfront();
f :: IPFilter(allow udp, allow tcp);
mir :: IPMirror();
out :: ToNetfront();
__sandbox :: ChangeEnforcer(whitelist 8.8.8.8);
in[0] -> [0]__sandbox;
__sandbox[0] -> [0]f;
f[0] -> [0]mir;
mir[0] -> [1]__sandbox;
__sandbox[1] -> [0]out;
`

// seededStream is a packet stream of UDP, TCP and ICMP packets over a
// few flows, with some expired TTLs, drawn from seed.
func seededStream(seed int64, n int) []*packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*packet.Packet, n)
	for i := range out {
		pk := mkPacket(uint32(1+rng.Intn(6)), i)
		switch rng.Intn(6) {
		case 0:
			pk.Protocol = packet.ProtoTCP
		case 1:
			pk.Protocol = packet.ProtoICMP
		case 2:
			pk.TTL = 1
		}
		out[i] = pk
	}
	return out
}

// TestCompileFallbacks runs the shapes the compiler used to refuse,
// and the platform used to serve on a separate fallback driver, on an
// Exec: over a seeded stream each one's transmissions and per-reason
// drops equal the bare walk's, and each does what the shape is for.
func TestCompileFallbacks(t *testing.T) {
	// Packets in bursts of 8 at advancing times, a tick after each.
	stream := func(ticks bool) []step {
		var steps []step
		pkts := seededStream(42, 40)
		for i, now := 0, int64(1_000_000); i < len(pkts); i, now = i+8, now+300_000_000 {
			steps = append(steps, step{pkts: pkts[i : i+8], now: now})
			if ticks {
				steps = append(steps, step{tick: true, now: now + 250_000_000})
			}
		}
		return steps
	}
	cases := []struct {
		name  string
		src   string
		ticks bool
		check func(t *testing.T, x outcome)
	}{
		{"round-robin", `in :: FromNetfront(); rr :: RoundRobinSwitch(2); a :: ToNetfront(0); b :: ToNetfront(1); in -> rr; rr[0] -> a; rr[1] -> b;`, false,
			func(t *testing.T, x outcome) {
				for i, e := range x.log {
					if e.iface != i%2 {
						t.Fatalf("egress %d on interface %d: not alternating", i, e.iface)
					}
				}
			}},
		{"random-sample", `in :: FromNetfront(); rs :: RandomSample(0.5); a :: ToNetfront(); in -> rs; rs[0] -> a;`, false,
			func(t *testing.T, x outcome) {
				if x.drops[click.DropUnwired] == 0 {
					t.Fatal("no packet took the unwired unsampled port")
				}
			}},
		{"timed-source", `ts :: TimedSource(0.5); in :: FromNetfront(); out :: ToNetfront(); ts -> out; in -> out;`, true,
			func(t *testing.T, x outcome) {
				if len(x.log) <= 40 {
					t.Fatalf("%d egresses: the source emitted nothing beside the 40 forwarded", len(x.log))
				}
			}},
		{"pull-wiring", `in :: FromNetfront(); q :: Queue(4); uq :: Unqueue(); out :: ToNetfront(); in -> q -> uq -> out;`, false,
			func(t *testing.T, x outcome) {
				// No tick runs: every packet leaves because the walk wakes
				// the Unqueue after the Queue holds it.
				if len(x.log) != 40 || x.drops != [click.NumDropReasons]uint64{} {
					t.Fatalf("%d of 40 packets left, drops %v", len(x.log), x.drops)
				}
			}},
		{"sandbox-cycle", sandboxConfig, false,
			func(t *testing.T, x outcome) {
				if x.drops[click.DropFilter] == 0 {
					t.Fatal("no ICMP packet was filtered")
				}
			}},
		{"no-source", `ts :: TimedSource(0.5); out :: ToNetfront(); ts -> out;`, true,
			func(t *testing.T, x outcome) {
				if x.refused != 40 || x.drops[click.DropUnwired] != 40 {
					t.Fatalf("refused %d, unwired drops %d: want all 40 delivered packets", x.refused, x.drops[click.DropUnwired])
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, x := differential(t, tc.src, stream(tc.ticks))
			tc.check(t, x)
		})
	}
}

func TestExecDropsCountAndPool(t *testing.T) {
	r, err := CompileConfig(`in :: FromNetfront(); d :: Discard(); in -> d;`)
	if err != nil {
		t.Fatal(err)
	}
	x := NewExec(r)
	pool := packet.NewPool(4, 64)
	x.Pool = pool
	if err := x.RunOne(0, pool.Get()); err != nil {
		t.Fatal(err)
	}
	if x.Drops != 1 || x.DropsBy[click.DropDiscard] != 1 {
		t.Fatalf("drops = %d %v, want one discard", x.Drops, x.DropsBy)
	}
	if _, puts, _ := pool.Stats(); puts != 1 {
		t.Fatalf("pool puts = %d", puts)
	}
	// A packet for an injection point the module lacks is refused,
	// counted as unwired and recycled.
	if err := x.Run(5, []*packet.Packet{pool.Get()}); err == nil {
		t.Fatal("expected bad source error")
	}
	if x.Drops != 2 || x.DropsBy[click.DropUnwired] != 1 || x.Packets != 2 {
		t.Fatalf("after a bad source: drops = %d %v, packets = %d", x.Drops, x.DropsBy, x.Packets)
	}
	if _, puts, _ := pool.Stats(); puts != 2 {
		t.Fatalf("pool puts = %d", puts)
	}
}

// TestRunOneDoesNotAllocate pins the steady-state cost of the module
// families benchmark/gen_pkt.go generates: once a flow's state exists,
// a packet allocates nothing. "sandbox" wires the enforcer acyclically,
// as TestDifferentialChangeEnforcer does; "sandbox-cycle" is the
// controller's wrapper.
func TestRunOneDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"forward", `in :: FromNetfront();
chk :: CheckIPHeader();
pt :: Paint(3);
ttl :: DecIPTTL();
cnt :: Counter();
out :: ToNetfront();
in -> chk -> pt -> ttl -> cnt -> out;`},
		{"firewall", `in :: FromNetfront();
fw :: IPFilter(allow udp dst port 80, allow tcp dst port 80, deny all);
ttl :: DecIPTTL();
out :: ToNetfront();
in -> fw -> ttl -> out;`},
		{"nat", `in :: FromNetfront();
nat :: IPRewriter(pattern 172.16.0.1 - 198.51.100.7 - 0 0);
out :: ToNetfront();
in -> nat -> out;`},
		{"stateful-firewall", `in :: FromNetfront();
fw :: StatefulFirewall(allow udp);
out :: ToNetfront();
in -> fw -> out;`},
		{"sandbox", `in :: FromNetfront(0);
ret :: FromNetfront(1);
ce :: ChangeEnforcer(whitelist 203.0.113.5);
toMod :: ToNetfront(0);
toWorld :: ToNetfront(1);
in -> [0]ce;
ret -> [1]ce;
ce[0] -> toMod;
ce[1] -> toWorld;`},
		{"sandbox-cycle", sandboxConfig},
		{"round-robin", `in :: FromNetfront();
rr :: RoundRobinSwitch(2);
o0 :: ToNetfront(0);
o1 :: ToNetfront(1);
in -> rr;
rr[0] -> o0;
rr[1] -> o1;`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := CompileConfig(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			x := NewExec(r)
			x.Now = func() int64 { return 1 }
			x.Transmit = func(int, *packet.Packet) {}
			tmpl := mkPacket(1, 0)
			tmpl.DstPort = 80
			var pk packet.Packet
			srcs := r.NumSources()
			i := 0
			run := func() {
				pk = *tmpl
				if i%srcs == 1 { // the module's reply to the flow's sender
					pk.SrcIP, pk.DstIP = pk.DstIP, pk.SrcIP
				}
				if err := x.RunOne(i%srcs, &pk); err != nil {
					t.Fatal(err)
				}
				i++
			}
			run() // first packet of the flow creates its state
			run()
			if n := testing.AllocsPerRun(200, run); n != 0 {
				t.Fatalf("%s: %.1f allocs per RunOne, want 0", tc.name, n)
			}
			if x.Drops != 0 {
				t.Fatalf("%s: steady-state packets dropped: %v", tc.name, x.DropsBy)
			}
		})
	}
}
