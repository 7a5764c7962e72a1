package platform

import (
	"fmt"
	"strings"
	"testing"

	"github.com/in-net/innet/internal/click"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

const statefulChain = `
in :: FromNetfront();
chk :: CheckIPHeader;
ttl :: DecIPTTL;
rl :: RateLimiter(3);
cnt :: Counter;
out :: ToNetfront();
d :: Discard;
in -> chk -> ttl -> rl -> cnt -> out;
chk[1] -> d;
ttl[1] -> d;
`

// TestPipelineDifferentialInPlatform runs traffic through a module on
// the platform and through a freshly built router on a counting
// Context, at the times the platform landed each packet, and requires
// identical egress and drops.
func TestPipelineDifferentialInPlatform(t *testing.T) {
	const dst = "198.51.100.77"
	var pkts []*packet.Packet
	for i := 0; i < 8; i++ {
		pk := udp(dst)
		pk.SrcPort = uint16(1000 + i%3)
		pk.TTL = uint8(1 + i%4) // some expire in DecIPTTL
		pk.Payload = []byte(fmt.Sprintf("p%d", i))
		pkts = append(pkts, pk)
	}
	show := func(log *[]string) func(int, *packet.Packet) {
		return func(iface int, pk *packet.Packet) {
			*log = append(*log, fmt.Sprintf("%d %s ttl=%d %q", iface, pk.Tuple(), pk.TTL, pk.Payload))
		}
	}

	sim := netsim.New(1)
	p := newPlatform(sim)
	if err := p.Register(ModuleSpec{Addr: packet.MustParseIP(dst), Config: statefulChain}); err != nil {
		t.Fatal(err)
	}
	var got []string
	var landed []int64
	for _, pk := range pkts {
		p.Deliver(pk.Clone(), show(&got))
		sim.Run()
		landed = append(landed, sim.Now())
	}

	var want []string
	var now int64
	var drops [click.NumDropReasons]uint64
	r := click.MustBuildString(statefulChain)
	ctx := &click.Context{
		Now:      func() int64 { return now },
		Transmit: show(&want),
		DropHook: func(r click.DropReason, _ *packet.Packet) { drops[r]++ },
	}
	for i, pk := range pkts {
		now = landed[i]
		if err := r.Inject(ctx, 0, pk.Clone()); err != nil {
			t.Fatal(err)
		}
	}

	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("egress:\n platform: %q\n walk:     %q", got, want)
	}
	if by := p.PipelineDrops(); by != drops {
		t.Errorf("drops by reason: platform %v, walk %v", by, drops)
	}
	if p.PipelinePackets != uint64(len(pkts)) {
		t.Errorf("PipelinePackets = %d, want %d", p.PipelinePackets, len(pkts))
	}
}

// TestDropsCountedOnEveryModule: a module's drops reach its counters
// and innet_drops_total{site="pipeline"} whatever its shape — with a
// RoundRobinSwitch, and when a ticker chain releases the packets that
// are dropped.
func TestDropsCountedOnEveryModule(t *testing.T) {
	const filter = "f :: IPFilter(allow udp, deny all);\n"
	for _, tc := range []struct {
		name, config string
		tcp, udp     int // packets delivered
		tx           int // packets transmitted
	}{
		{"filter", "in :: FromNetfront();\n" + filter + "out :: ToNetfront();\nin -> f -> out;\n", 4, 0, 0},
		{"round-robin", "in :: FromNetfront();\n" + filter + `rr :: RoundRobinSwitch(1);
out :: ToNetfront();
in -> f -> rr -> out;
`, 4, 0, 0},
		{"ticker-chain", "in :: FromNetfront();\nq :: Queue;\ntu :: TimedUnqueue(0.001, 4);\n" + filter +
			"out :: ToNetfront();\nin -> q -> tu -> f -> out;\n", 2, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.New(1)
			p := newPlatform(sim)
			reg := telemetry.New()
			d := telemetry.NewDrops()
			d.Attach(reg)
			p.RegisterDrops(d, nil)
			addr := packet.MustParseIP("198.51.100.9")
			if err := p.Register(ModuleSpec{Addr: addr, Config: tc.config}); err != nil {
				t.Fatal(err)
			}
			tx := 0
			out := func(int, *packet.Packet) { tx++ }
			for i := 0; i < tc.tcp+tc.udp; i++ {
				pk := udp("198.51.100.9")
				if i < tc.tcp {
					pk.Protocol = packet.ProtoTCP
				}
				p.Deliver(pk, out)
			}
			sim.Run()
			if tx != tc.tx {
				t.Errorf("transmitted %d, want %d", tx, tc.tx)
			}
			var want [click.NumDropReasons]uint64
			want[click.DropFilter] = uint64(tc.tcp)
			if by := p.PipelineDrops(); by != want {
				t.Errorf("PipelineDrops = %v, want %v", by, want)
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			line := fmt.Sprintf(`innet_drops_total{reason="filter",site="pipeline"} %d`, tc.tcp)
			if !strings.Contains(sb.String(), line+"\n") {
				t.Errorf("exposition lacks %s", line)
			}
			if p.DroppedTotal() != 0 {
				t.Errorf("platform-level drops = %d, want 0", p.DroppedTotal())
			}
		})
	}
}

// TestSourceOnlyModuleCountsDeliveredPackets: a packet delivered to a
// module with no injection point (a TimedSource and nothing to receive
// traffic) is dropped as the module's unwired drop, not lost without a
// trace and not charged to the platform datapath.
func TestSourceOnlyModuleCountsDeliveredPackets(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	addr := packet.MustParseIP("198.51.100.5")
	err := p.Register(ModuleSpec{Addr: addr, Config: `src :: TimedSource(1, "ka");
out :: ToNetfront();
src -> out;
`})
	if err != nil {
		t.Fatal(err)
	}
	generated := 0
	p.Transmit = func(int, *packet.Packet) { generated++ }
	sim.RunUntil(netsim.Millis(100)) // boot
	sent := 0
	for i := 0; i < 3; i++ {
		p.Deliver(udp("198.51.100.5"), func(int, *packet.Packet) { sent++ })
	}
	sim.RunUntil(netsim.Millis(200))
	if sent != 0 {
		t.Errorf("a module with no injection point transmitted %d delivered packets", sent)
	}
	if by := p.PipelineDrops(); by[click.DropUnwired] != 3 {
		t.Errorf("PipelineDrops = %v, want 3 unwired", by)
	}
	if p.DroppedTotal() != 0 {
		t.Errorf("platform-level drops = %d, want 0", p.DroppedTotal())
	}
	if vm := p.VMFor(addr); vm == nil || vm.PacketsProcessed != 3 {
		t.Errorf("VM processed %v, want 3", vm)
	}
	sim.RunUntil(2 * netsim.Second)
	if generated == 0 {
		t.Error("the source generated nothing")
	}
}

// TestTickerChainTransmitsThroughStartingOut: a ticker chain releases
// held packets through the out of the packet that started it, not the
// out of whichever packet landed on the module last.
func TestTickerChainTransmitsThroughStartingOut(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	if err := p.Register(ModuleSpec{Addr: packet.MustParseIP("198.51.100.6"), Config: `in :: FromNetfront();
tu :: TimedUnqueue(0.01);
out :: ToNetfront();
in -> tu -> out;
`}); err != nil {
		t.Fatal(err)
	}
	var got []string
	outTo := func(name string) func(int, *packet.Packet) {
		return func(int, *packet.Packet) { got = append(got, name) }
	}
	p.Deliver(udp("198.51.100.6"), outTo("first")) // boots the guest
	sim.RunUntil(netsim.Millis(50))
	if len(got) != 1 {
		t.Fatalf("boot-buffered packet: got %v", got)
	}
	got = got[:0]
	p.Deliver(udp("198.51.100.6"), outTo("a"))
	sim.RunUntil(sim.Now() + netsim.Millis(1)) // a lands and is held
	p.Deliver(udp("198.51.100.6"), outTo("b"))
	sim.Run()
	if strings.Join(got, ",") != "a,a" {
		t.Errorf("released through %v, want a,a (the out of the packet that started the chain)", got)
	}
}
