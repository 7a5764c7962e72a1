package platform_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/in-net/innet/internal/controller"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/platform"
)

// TestTranscriptGolden is a behaviour oracle for the platform's packet
// path and guest lifecycle. A seeded driver runs a mix of modules —
// with and without tickers, stateful, sandboxed, a balancer and a
// traffic source — through boot buffering, crashes with packets
// in flight, boot failures and their backoff, suspend/resume, memory
// pressure, whole-platform outages and unregistration with events
// pending. Every transmitted packet and every counter is rendered into
// a transcript that must equal testdata/transcript.golden byte for byte.
//
// The golden file pins behaviour, not an implementation: an
// optimisation must reproduce it unchanged. Only an intended behaviour
// change regenerates it, by writing renderTranscript's output to the
// file.
func TestTranscriptGolden(t *testing.T) {
	got := renderTranscript(t)
	want, err := os.ReadFile("testdata/transcript.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("transcript differs at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("transcript has %d lines, golden has %d", len(g), len(w))
}

// renderTranscript runs the driver for a few seeds.
func renderTranscript(t *testing.T) string {
	var b strings.Builder
	for _, seed := range []int64{1, 2} {
		fmt.Fprintf(&b, "# seed %d\n", seed)
		runTranscript(t, &b, seed)
	}
	return b.String()
}

type transcriptModule struct {
	name string
	spec platform.ModuleSpec
	live bool // registered
}

func transcriptModules(t *testing.T) []*transcriptModule {
	base := packet.MustParseIP("198.51.100.1")
	sandboxed, err := controller.SandboxConfig(`in :: FromNetfront();
f :: IPFilter(allow udp, allow tcp);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`, []uint32{packet.MustParseIP("8.8.8.8")})
	if err != nil {
		t.Fatal(err)
	}
	timed := `in :: FromNetfront();
tu :: TimedUnqueue(0.02, 3);
out :: ToNetfront();
in -> tu -> out;
`
	specs := []struct {
		name string
		spec platform.ModuleSpec
	}{
		{"fwd", platform.ModuleSpec{Config: `in :: FromNetfront();
chk :: CheckIPHeader();
pt :: Paint(7);
ttl :: DecIPTTL();
cnt :: Counter();
out :: ToNetfront();
in -> chk -> pt -> ttl -> cnt -> out;
`}},
		{"fw", platform.ModuleSpec{Config: `in :: FromNetfront();
fw :: IPFilter(allow udp dst port 53, allow tcp dst port 80, deny all);
ttl :: DecIPTTL();
out :: ToNetfront();
in -> fw -> ttl -> out;
`}},
		{"sfw", platform.ModuleSpec{Stateful: true, ExtraCycles: platform.ExtraCycles("nat"), Config: `in :: FromNetfront();
fw :: StatefulFirewall(allow udp, timeout 0.5);
out :: ToNetfront();
in -> fw -> out;
`}},
		{"tu", platform.ModuleSpec{Stateful: true, Config: timed}},
		{"tu-gw", platform.ModuleSpec{Stateful: true, Config: timed}},
		{"sbx", platform.ModuleSpec{Stateful: true, Config: sandboxed}},
		{"rr", platform.ModuleSpec{Config: `in :: FromNetfront();
rr :: RoundRobinSwitch(2);
o0 :: ToNetfront(0);
o1 :: ToNetfront(1);
in -> rr;
rr[0] -> o0;
rr[1] -> o1;
`}},
		{"src", platform.ModuleSpec{Stateful: true, Config: `src :: TimedSource(0.25, "ka");
snat :: SetIPSrc(198.51.100.8);
fwd :: SetIPDst(192.0.2.1);
out :: ToNetfront();
src -> snat -> fwd -> out;
`}},
	}
	var mods []*transcriptModule
	for i, s := range specs {
		s.spec.Addr = base + uint32(i)
		mods = append(mods, &transcriptModule{name: s.name, spec: s.spec})
	}
	return mods
}

// runTranscript drives one seeded scenario and appends its transcript.
func runTranscript(t *testing.T, w *strings.Builder, seed int64) {
	sim := netsim.New(seed)
	// 48 MB holds six of the eight 8 MB guests: memory pressure evicts.
	p := platform.New(sim, platform.DefaultModel(), 48)
	p.TraceEvery = 3
	p.PendingLimit = 8
	p.PendingTimeout = netsim.Millis(25)
	rng := rand.New(rand.NewSource(seed))

	tx := func(label string) func(int, *packet.Packet) {
		return func(iface int, pk *packet.Packet) {
			hdr := pk.Clone().Serialize(nil)
			if len(hdr) > 28 {
				hdr = hdr[:28]
			}
			fmt.Fprintf(w, "tx %d if=%d mod=%s uid=%d paint=%d %x\n",
				sim.Now(), iface, label, pk.UserID, pk.Paint, hdr)
		}
	}
	p.Transmit = tx("source")
	batchOut := tx("batch")

	mods := transcriptModules(t)
	outs := make(map[string]func(int, *packet.Packet), len(mods))
	register := func(m *transcriptModule) {
		err := p.Register(m.spec)
		fmt.Fprintf(w, "register %s err=%v\n", m.name, err)
		m.live = err == nil
	}
	for _, m := range mods {
		outs[m.name] = tx(m.name)
		register(m)
	}

	srcs := []uint32{packet.MustParseIP("8.8.8.8"), packet.MustParseIP("9.9.9.9"), packet.MustParseIP("10.0.0.7")}
	var uid uint32
	mkPkt := func(m *transcriptModule) *packet.Packet {
		uid++
		pk := &packet.Packet{
			Protocol: packet.ProtoUDP,
			SrcIP:    srcs[rng.Intn(len(srcs))],
			DstIP:    m.spec.Addr,
			SrcPort:  uint16(1000 + rng.Intn(4)),
			DstPort:  []uint16{53, 80, 443}[rng.Intn(3)],
			TTL:      64,
			UserID:   uid,
			Payload:  make([]byte, rng.Intn(24)),
		}
		switch r := rng.Intn(10); {
		case r < 2:
			pk.Protocol = packet.ProtoTCP
			pk.TCPFlags = packet.TCPSyn
		case r < 3:
			pk.Protocol = packet.ProtoICMP
		}
		switch rng.Intn(12) {
		case 0:
			pk.TTL = 1
		case 1:
			pk.TTL = 0
		}
		rng.Read(pk.Payload)
		return pk
	}
	pick := func() *transcriptModule { return mods[rng.Intn(len(mods))] }
	deliver := func(m *transcriptModule, n int) {
		for i := 0; i < n; i++ {
			p.Deliver(mkPkt(m), outs[m.name])
		}
	}
	steps := []netsim.Time{0, 10 * netsim.Microsecond, 200 * netsim.Microsecond,
		netsim.Millis(5), netsim.Millis(40), netsim.Millis(150), netsim.Second}

	for step := 0; step < 200; step++ {
		if p.Down() && rng.Intn(2) == 0 {
			p.Recover()
			fmt.Fprintf(w, "step %d recover\n", step)
		}
		m := pick()
		switch op := rng.Intn(100); {
		case op < 40 && !m.live:
			fmt.Fprintf(w, "step %d ", step)
			register(m)
		case op < 40:
			n := 1 + rng.Intn(6)
			fmt.Fprintf(w, "step %d deliver %s x%d\n", step, m.name, n)
			deliver(m, n)
		case op < 68:
			var burst []*packet.Packet
			for runs := 1 + rng.Intn(3); runs > 0; runs-- {
				rm := pick()
				for n := 1 + rng.Intn(4); n > 0; n-- {
					burst = append(burst, mkPkt(rm))
				}
			}
			fmt.Fprintf(w, "step %d batch x%d\n", step, len(burst))
			p.DeliverBatch(burst, batchOut)
		case op < 76:
			deliver(m, 2)
			fmt.Fprintf(w, "step %d crash %s resident=%v\n", step, m.name, p.CrashVM(m.spec.Addr))
		case op < 81:
			p.FailNextBoot(m.spec.Addr)
			fmt.Fprintf(w, "step %d fail-next-boot %s\n", step, m.name)
			deliver(m, 1)
		case op < 89:
			d := netsim.Time(0)
			if vm := p.VMFor(m.spec.Addr); vm != nil {
				d = p.Suspend(vm)
			}
			fmt.Fprintf(w, "step %d suspend %s d=%d\n", step, m.name, d)
			deliver(m, rng.Intn(3))
		case op < 91:
			fmt.Fprintf(w, "step %d checkpoint n=%d\n", step, p.Checkpoint())
		case op < 93:
			p.Fail()
			fmt.Fprintf(w, "step %d fail\n", step)
		default:
			if m.live {
				deliver(m, 1)
				p.Unregister(m.spec.Addr)
				m.live = false
				fmt.Fprintf(w, "step %d unregister %s\n", step, m.name)
			} else {
				fmt.Fprintf(w, "step %d ", step)
				register(m)
			}
		}
		sim.RunUntil(sim.Now() + steps[rng.Intn(len(steps))])
		renderState(w, sim, p, mods)
	}
	if p.Down() {
		p.Recover()
	}
	sim.RunUntil(sim.Now() + 10*netsim.Second)
	renderState(w, sim, p, mods)
}

// renderState writes every platform counter and each module's guest.
func renderState(w *strings.Builder, sim *netsim.Sim, p *platform.Platform, mods []*transcriptModule) {
	pk, pb, pd := p.PipelineCounters()
	fmt.Fprintf(w, "ctr t=%d exec=%d pend=%d vms=%d mem=%d buf=%d down=%v "+
		"boot=%d susp=%d res=%d destroy=%d crash=%d bootfail=%d respawn=%d outage=%d evict=%d ckpt=%d restore=%d "+
		"drop=%d/%d/%d/%d/%d/%d total=%d pipe=%d run=%d/%d/%d by=%v\n",
		sim.Now(), sim.Executed, sim.Pending(), p.ResidentVMs(), p.MemUsedMB, p.PendingBuffered(), p.Down(),
		p.Boots, p.Suspends, p.Resumes, p.Destroys, p.Crashes, p.BootFailures, p.Respawns, p.Outages,
		p.Evictions, p.Checkpoints, p.Restores,
		p.DroppedNoModule, p.DroppedNoMemory, p.DroppedBufferFull, p.DroppedTimeout, p.DroppedDown,
		p.DroppedInFlight, p.DroppedTotal(),
		p.PipelinePackets, pk, pb, pd, p.PipelineDrops())
	w.WriteString("vm")
	for _, m := range mods {
		if vm := p.VMFor(m.spec.Addr); vm != nil {
			fmt.Fprintf(w, " %s=%d:%s:%d", m.name, vm.ID, vm.State, vm.PacketsProcessed)
		} else {
			fmt.Fprintf(w, " %s=-", m.name)
		}
	}
	w.WriteString("\n")
}
