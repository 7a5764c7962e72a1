package platform

import (
	"testing"

	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
)

const passthrough = `
in :: FromNetfront();
f :: IPFilter(allow all);
out :: ToNetfront();
in -> f -> out;
`

func newPlatform(sim *netsim.Sim) *Platform {
	return New(sim, DefaultModel(), 16*1024)
}

func udp(dst string) *packet.Packet {
	return &packet.Packet{
		Protocol: packet.ProtoUDP,
		SrcIP:    packet.MustParseIP("8.8.8.8"),
		DstIP:    packet.MustParseIP(dst),
		SrcPort:  1000, DstPort: 1500, TTL: 64,
		Payload: make([]byte, 100),
	}
}

func TestOnTheFlyBoot(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	addr := "198.51.100.10"
	if err := p.Register(ModuleSpec{Addr: packet.MustParseIP(addr), Config: passthrough}); err != nil {
		t.Fatal(err)
	}
	if p.ResidentVMs() != 0 {
		t.Fatal("VM instantiated before traffic")
	}
	var outAt []netsim.Time
	out := func(iface int, pk *packet.Packet) { outAt = append(outAt, sim.Now()) }
	p.Deliver(udp(addr), out)
	if p.ResidentVMs() != 1 {
		t.Fatal("first packet did not trigger instantiation")
	}
	sim.Run()
	if len(outAt) != 1 {
		t.Fatalf("outputs = %d", len(outAt))
	}
	boot := DefaultModel().BootLatency(ClickOS, 0)
	if outAt[0] < boot {
		t.Errorf("first packet exited at %v, before boot (%v)", outAt[0], boot)
	}
	if outAt[0] > boot+netsim.Millisecond {
		t.Errorf("first packet exited at %v, far beyond boot (%v)", outAt[0], boot)
	}

	// A second packet is processed without boot latency.
	prev := sim.Now()
	p.Deliver(udp(addr), out)
	sim.Run()
	if len(outAt) != 2 {
		t.Fatalf("outputs = %d", len(outAt))
	}
	if d := outAt[1] - prev; d > netsim.Millis(1) {
		t.Errorf("warm packet latency = %v", d)
	}
}

func TestBootLatencyGrowsWithResidentVMs(t *testing.T) {
	m := DefaultModel()
	if m.BootLatency(ClickOS, 100) <= m.BootLatency(ClickOS, 0) {
		t.Error("boot latency must grow")
	}
	if m.BootLatency(LinuxVM, 0) < 10*m.BootLatency(ClickOS, 0) {
		t.Error("linux boot should be an order of magnitude slower (§6)")
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	p.Deliver(udp("203.0.113.1"), func(int, *packet.Packet) { t.Fatal("no module should emit") })
	sim.Run()
	if p.DroppedNoModule != 1 {
		t.Errorf("DroppedNoModule = %d", p.DroppedNoModule)
	}
}

func TestMemoryLimit(t *testing.T) {
	sim := netsim.New(1)
	p := New(sim, DefaultModel(), 1024) // 1 GB: two 512 MB Linux VMs
	for i := 0; i < 3; i++ {
		addr := packet.MustParseIP("198.51.100.10") + uint32(i)
		if err := p.Register(ModuleSpec{Addr: addr, Config: passthrough, Kind: LinuxVM}); err != nil {
			t.Fatal(err)
		}
		pk := udp("198.51.100.10")
		pk.DstIP = addr
		p.Deliver(pk, func(int, *packet.Packet) {})
	}
	sim.Run()
	if p.ResidentVMs() != 2 {
		t.Errorf("resident = %d want 2", p.ResidentVMs())
	}
	if p.DroppedNoMemory != 1 {
		t.Errorf("DroppedNoMemory = %d", p.DroppedNoMemory)
	}
	// ClickOS fits ~128 VMs in the same GB.
	sim2 := netsim.New(1)
	p2 := New(sim2, DefaultModel(), 1024)
	for i := 0; i < 100; i++ {
		addr := packet.MustParseIP("198.51.101.1") + uint32(i)
		p2.Register(ModuleSpec{Addr: addr, Config: passthrough})
		pk := udp("198.51.101.1")
		pk.DstIP = addr
		p2.Deliver(pk, func(int, *packet.Packet) {})
	}
	sim2.Run()
	if p2.ResidentVMs() != 100 {
		t.Errorf("clickos resident = %d", p2.ResidentVMs())
	}
}

func TestConsolidation(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	p.Consolidate = true
	p.ConsolidatePerVM = 50
	for i := 0; i < 120; i++ {
		addr := packet.MustParseIP("198.51.100.1") + uint32(i)
		if err := p.Register(ModuleSpec{Addr: addr, Config: passthrough}); err != nil {
			t.Fatal(err)
		}
		pk := udp("198.51.100.1")
		pk.DstIP = addr
		p.Deliver(pk, func(int, *packet.Packet) {})
		sim.Run()
	}
	// 120 configs at 50 per VM -> 3 VMs.
	if p.ResidentVMs() != 3 {
		t.Errorf("resident = %d want 3", p.ResidentVMs())
	}
	if p.Boots != 3 {
		t.Errorf("boots = %d want 3", p.Boots)
	}
}

func TestStatefulNotConsolidated(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	p.Consolidate = true
	a1 := packet.MustParseIP("198.51.100.1")
	a2 := packet.MustParseIP("198.51.100.2")
	p.Register(ModuleSpec{Addr: a1, Config: passthrough, Stateful: true})
	p.Register(ModuleSpec{Addr: a2, Config: passthrough, Stateful: true})
	pk1 := udp("198.51.100.1")
	pk2 := udp("198.51.100.2")
	p.Deliver(pk1, func(int, *packet.Packet) {})
	sim.Run()
	p.Deliver(pk2, func(int, *packet.Packet) {})
	sim.Run()
	if p.ResidentVMs() != 2 {
		t.Errorf("stateful modules share a VM: %d", p.ResidentVMs())
	}
}

func TestSuspendResume(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	addr := packet.MustParseIP("198.51.100.10")
	p.Register(ModuleSpec{Addr: addr, Config: passthrough, Stateful: true})
	got := 0
	p.Deliver(udp("198.51.100.10"), func(int, *packet.Packet) { got++ })
	sim.Run()
	vm := p.VMFor(addr)
	if vm == nil || vm.State != VMRunning {
		t.Fatal("vm not running")
	}
	d := p.Suspend(vm)
	if d <= 0 {
		t.Fatal("suspend latency")
	}
	sim.Run()
	if vm.State != VMSuspended {
		t.Fatalf("state = %v", vm.State)
	}
	// Traffic to a suspended VM resumes it and is then processed.
	p.Deliver(udp("198.51.100.10"), func(int, *packet.Packet) { got++ })
	sim.Run()
	if got != 2 {
		t.Errorf("outputs = %d", got)
	}
	if vm.State != VMRunning {
		t.Errorf("state after resume = %v", vm.State)
	}
	if p.Suspends != 1 || p.Resumes != 1 {
		t.Errorf("suspends=%d resumes=%d", p.Suspends, p.Resumes)
	}
}

func TestReclaimIdle(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	stateless := packet.MustParseIP("198.51.100.10")
	stateful := packet.MustParseIP("198.51.100.11")
	p.Register(ModuleSpec{Addr: stateless, Config: passthrough})
	p.Register(ModuleSpec{Addr: stateful, Config: passthrough, Stateful: true})
	pk := udp("198.51.100.10")
	p.Deliver(pk, func(int, *packet.Packet) {})
	pk2 := udp("198.51.100.11")
	p.Deliver(pk2, func(int, *packet.Packet) {})
	sim.Run()
	if p.ResidentVMs() != 2 {
		t.Fatalf("resident = %d", p.ResidentVMs())
	}
	sim.RunUntil(sim.Now() + netsim.Seconds(60))
	n := p.ReclaimIdle(netsim.Seconds(30))
	sim.Run()
	if n != 2 {
		t.Errorf("reclaimed = %d", n)
	}
	// Stateless destroyed, stateful suspended.
	if p.VMFor(stateless) != nil {
		t.Error("stateless VM not destroyed")
	}
	vm := p.VMFor(stateful)
	if vm == nil || vm.State != VMSuspended {
		t.Error("stateful VM not suspended")
	}
	if p.Destroys != 1 {
		t.Errorf("destroys = %d", p.Destroys)
	}
	// Destroyed module boots again on demand.
	p.Deliver(udp("198.51.100.10"), func(int, *packet.Packet) {})
	sim.Run()
	if p.VMFor(stateless) == nil {
		t.Error("module did not reboot")
	}
}

func TestUnregister(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	addr := packet.MustParseIP("198.51.100.10")
	p.Register(ModuleSpec{Addr: addr, Config: passthrough})
	p.Deliver(udp("198.51.100.10"), func(int, *packet.Packet) {})
	sim.Run()
	p.Unregister(addr)
	if p.RegisteredModules() != 0 || p.ResidentVMs() != 0 {
		t.Error("unregister did not clean up")
	}
	p.Deliver(udp("198.51.100.10"), func(int, *packet.Packet) {})
	sim.Run()
	if p.DroppedNoModule != 1 {
		t.Error("traffic after unregister not dropped")
	}
}

func TestRegisterErrors(t *testing.T) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	addr := packet.MustParseIP("198.51.100.10")
	if err := p.Register(ModuleSpec{Addr: addr, Config: "::bad::"}); err == nil {
		t.Error("bad config accepted")
	}
	if err := p.Register(ModuleSpec{Addr: addr, Config: passthrough}); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(ModuleSpec{Addr: addr, Config: passthrough}); err == nil {
		t.Error("duplicate address accepted")
	}
}

func TestTimedModuleBatches(t *testing.T) {
	// A batcher module inside a VM releases packets on its interval,
	// driven by the platform's ticker scheduling.
	sim := netsim.New(1)
	p := newPlatform(sim)
	addr := packet.MustParseIP("198.51.100.10")
	err := p.Register(ModuleSpec{Addr: addr, Config: `
in :: FromNetfront();
tu :: TimedUnqueue(2, 100);
out :: ToNetfront();
in -> tu -> out;
`, Stateful: true})
	if err != nil {
		t.Fatal(err)
	}
	var outAt []netsim.Time
	for i := 0; i < 3; i++ {
		p.Deliver(udp("198.51.100.10"), func(int, *packet.Packet) {
			outAt = append(outAt, sim.Now())
		})
	}
	sim.Run()
	if len(outAt) != 3 {
		t.Fatalf("outputs = %d", len(outAt))
	}
	// Batched release is >= 2 s after the packets entered.
	if outAt[0] < netsim.Seconds(2) {
		t.Errorf("batch released at %v", outAt[0])
	}
}

func TestSourceModuleBootsEagerlyAndTicks(t *testing.T) {
	// A keepalive generator has no ingress: it must boot at Register
	// time and emit via the platform's Transmit hook. (Drive the
	// clock with RunUntil — a generator ticks forever.)
	sim := netsim.New(1)
	p := newPlatform(sim)
	var got []*packet.Packet
	p.Transmit = func(iface int, pk *packet.Packet) { got = append(got, pk) }
	addr := packet.MustParseIP("198.51.100.10")
	err := p.Register(ModuleSpec{Addr: addr, Config: `
src :: TimedSource(5);
snat :: SetIPSrc(198.51.100.10);
fwd :: SetIPDst(192.0.2.1);
out :: ToNetfront();
src -> snat -> fwd -> out;
`, Stateful: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.ResidentVMs() != 1 {
		t.Fatal("source module did not boot eagerly")
	}
	sim.RunUntil(netsim.Seconds(21))
	if len(got) < 3 || len(got) > 5 {
		t.Fatalf("keepalives in 21s at 5s interval = %d", len(got))
	}
	if packet.IPString(got[0].SrcIP) != "198.51.100.10" {
		t.Errorf("keepalive src = %s", packet.IPString(got[0].SrcIP))
	}
	// Memory exhaustion at Register is reported.
	p2 := New(netsim.New(1), DefaultModel(), 4) // 4 MB < ClickOS footprint
	err = p2.Register(ModuleSpec{Addr: addr, Config: `
src :: TimedSource(5);
out :: ToNetfront();
src -> out;
`})
	if err == nil {
		t.Error("register accepted without memory")
	}
	if p2.RegisteredModules() != 0 {
		t.Error("failed register left the spec behind")
	}
}

func TestThroughputModelShapes(t *testing.T) {
	m := DefaultModel()
	// Fig. 8 shape: ~10 Gb/s up to ~150 consolidated configs, then a
	// decline.
	at24 := m.ThroughputBps(1, 24, 1500, 0)
	at252 := m.ThroughputBps(1, 252, 1500, 0)
	line := m.LineRatePPS(1500) * 1500 * 8
	if at24 < 0.99*line {
		t.Errorf("throughput at 24 configs = %.2f Gb/s, want line rate", at24/1e9)
	}
	if at252 >= at24 || at252 > 0.92*line || at252 < 0.7*line {
		t.Errorf("throughput at 252 configs = %.2f Gb/s, want a visible but moderate decline", at252/1e9)
	}
	// Fig. 12 spread: nat is the most expensive, flowmeter cheapest.
	nat := m.ThroughputBps(50, 1, 1500, ExtraCycles("nat"))
	fw := m.ThroughputBps(50, 1, 1500, ExtraCycles("firewall"))
	fm := m.ThroughputBps(50, 1, 1500, ExtraCycles("flowmeter"))
	if !(nat < fw && fw <= fm) {
		t.Errorf("ordering: nat %.2f fw %.2f fm %.2f", nat/1e9, fw/1e9, fm/1e9)
	}
	if nat < 7e9 {
		t.Errorf("nat throughput = %.2f Gb/s, too low for Fig. 12", nat/1e9)
	}
	// Line-rate cap respected for tiny packets.
	if got := m.ThroughputBps(1, 1, 64, 0); got > m.LineRateBps {
		t.Errorf("throughput exceeds line rate: %f", got)
	}
}

func TestSuspendResumeLatencyBand(t *testing.T) {
	// Fig. 7: 30-100 ms across 0-200 resident VMs.
	m := DefaultModel()
	for _, n := range []int{0, 50, 100, 200} {
		s := m.SuspendLatency(n)
		r := m.ResumeLatency(n)
		if s < netsim.Millis(25) || s > netsim.Millis(100) {
			t.Errorf("suspend(%d) = %v out of band", n, s)
		}
		if r < netsim.Millis(40) || r > netsim.Millis(110) {
			t.Errorf("resume(%d) = %v out of band", n, r)
		}
		if r <= s {
			t.Errorf("resume should cost more than suspend at %d VMs", n)
		}
	}
}

// TestDeliverDoesNotAllocate: once a guest is running, delivering a
// burst and draining the simulator allocates nothing, for a forwarding
// chain and for a RoundRobinSwitch balancer.
func TestDeliverDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct{ name, config string }{
		{"compiled", `
in :: FromNetfront();
chk :: CheckIPHeader();
pt :: Paint(7);
ttl :: DecIPTTL();
cnt :: Counter();
out :: ToNetfront();
in -> chk -> pt -> ttl -> cnt -> out;
`},
		{"round-robin", `
in :: FromNetfront();
rr :: RoundRobinSwitch(2);
o0 :: ToNetfront(0);
o1 :: ToNetfront(1);
in -> rr;
rr[0] -> o0;
rr[1] -> o1;
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.New(1)
			p := newPlatform(sim)
			p.TraceEvery = -1
			addr := packet.MustParseIP("198.51.100.10")
			if err := p.Register(ModuleSpec{Addr: addr, Config: tc.config}); err != nil {
				t.Fatal(err)
			}
			pkts := make([]*packet.Packet, 32)
			for i := range pkts {
				pkts[i] = udp("198.51.100.10")
				pkts[i].SrcPort = uint16(1000 + i)
			}
			sent := 0
			out := func(int, *packet.Packet) { sent++ }
			burst := func() {
				for _, pk := range pkts {
					pk.TTL = 64
				}
				p.DeliverBatch(pkts, out)
				sim.Run()
			}
			burst() // boots the guest
			if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
				t.Fatalf("DeliverBatch + Run allocated %.1f times per burst of %d", allocs, len(pkts))
			}
			if want := 102 * len(pkts); sent != want {
				t.Fatalf("transmitted %d packets, want %d", sent, want)
			}
		})
	}
}

func BenchmarkDeliverWarm(b *testing.B) {
	sim := netsim.New(1)
	p := newPlatform(sim)
	addr := packet.MustParseIP("198.51.100.10")
	p.Register(ModuleSpec{Addr: addr, Config: passthrough})
	pk := udp("198.51.100.10")
	sink := func(int, *packet.Packet) {}
	p.Deliver(pk, sink)
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Deliver(pk, sink)
		sim.Run()
	}
}
