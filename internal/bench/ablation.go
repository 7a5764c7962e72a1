package bench

import (
	"fmt"

	"github.com/in-net/innet/internal/dataplane"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/platform"
)

const ablationFirewall = `
in :: FromNetfront();
fw :: IPFilter(allow all);
out :: ToNetfront();
in -> fw -> out;
`

// AblationConsolidation quantifies §5's "aggregating multiple users
// onto a single virtual machine": the same 1,000 stateless clients
// served one-VM-per-client versus consolidated 100-per-VM. The win is
// two orders of magnitude in memory and booted guests, which is what
// lets a $1,000 box carry the MAWI backbone's active sources.
func AblationConsolidation() *Table {
	t := &Table{
		ID:      "Ablation A",
		Title:   "one VM per client vs consolidation (1,000 stateless firewall clients)",
		Columns: []string{"strategy", "vms", "boots", "memory-MB"},
	}
	run := func(consolidate bool, perVM int) (vms int, boots uint64, mem int) {
		sim := netsim.New(1)
		p := platform.New(sim, platform.DefaultModel(), 64*1024)
		p.Consolidate = consolidate
		p.ConsolidatePerVM = perVM
		base := packet.MustParseIP("198.51.0.0")
		for i := 0; i < 1000; i++ {
			addr := base + 1 + uint32(i)
			if err := p.Register(platform.ModuleSpec{Addr: addr, Config: ablationFirewall}); err != nil {
				panic(err)
			}
			pk := &packet.Packet{Protocol: packet.ProtoUDP, SrcIP: 1, DstIP: addr, TTL: 64}
			p.Deliver(pk, func(int, *packet.Packet) {})
			sim.Run()
		}
		return p.ResidentVMs(), p.Boots, p.MemUsedMB
	}
	vms, boots, mem := run(false, 0)
	t.AddRow("per-client VMs", d(vms), d(int(boots)), d(mem))
	vms, boots, mem = run(true, 100)
	t.AddRow("consolidated (100/VM)", d(vms), d(int(boots)), d(mem))
	t.Notes = append(t.Notes, "consolidation is only applied after the controller statically proves the configurations cannot interact (§5)")
	return t
}

// AblationSuspendResume quantifies §5's suspend/resume design for
// stateful modules against the destroy/reboot alternative: both
// reactivation latency and whether middlebox state (here a FlowMeter)
// survives.
func AblationSuspendResume() *Table {
	t := &Table{
		ID:      "Ablation B",
		Title:   "reactivating an idle stateful module: suspend/resume vs destroy/boot (100 resident VMs)",
		Columns: []string{"strategy", "reactivate-ms", "flow-state"},
	}
	m := platform.DefaultModel()
	const resident = 100
	resume := float64(m.ResumeLatency(resident)) / 1e6
	boot := float64(m.BootLatency(platform.ClickOS, resident)) / 1e6
	t.AddRow("suspend/resume", f1(resume), "preserved")
	t.AddRow("destroy/boot", f1(boot), "LOST (connections reset)")
	t.Notes = append(t.Notes,
		"terminating a stateful VM would terminate end-to-end traffic (§5); resume costs more milliseconds than boot only at very high VM counts, but keeps the flow tables")
	return t
}

// AblationSandbox isolates the §7.2 comparison on this machine: the
// same module measured bare, with the in-configuration ChangeEnforcer
// and with the separate-VM sandbox model.
func AblationSandbox(quick bool) *Table {
	n, trials := 200000, 5
	if quick {
		n, trials = 20000, 15
	}
	const bare = `
in :: FromNetfront();
f :: IPFilter(allow udp);
m :: FlowMeter();
crc :: SetCRC32();
mir :: IPMirror();
out :: ToNetfront();
in -> f -> m -> crc -> mir -> out;
`
	const enforced = `
in :: FromNetfront();
f :: IPFilter(allow udp);
m :: FlowMeter();
crc :: SetCRC32();
mir :: IPMirror();
ce :: ChangeEnforcer();
out :: ToNetfront();
in -> [0]ce;
ce[0] -> f;
f -> m -> crc -> mir -> [1]ce;
ce[1] -> out;
`
	t := &Table{
		ID:      "Ablation C",
		Title:   "sandboxing strategies at 64 B packets (measured ns/packet)",
		Columns: []string{"strategy", "ns/pkt", "relative"},
	}
	rb, err := dataplane.NewRunnerString(bare)
	if err != nil {
		panic(err)
	}
	re, err := dataplane.NewRunnerString(enforced)
	if err != nil {
		panic(err)
	}
	tpl := dataplane.UDPTemplate(64)
	best := dataplane.MeasureBest(tpl, n, trials, rb, re)
	a, b := best[0], best[1]
	// Separate-VM: two VM context switches per packet; §7.2 reports
	// the system dropping to ≈30% of the unsandboxed rate.
	sepNs := a.NsPerPacket / 0.30
	t.AddRow("no sandbox", f1(a.NsPerPacket), "1.00x")
	t.AddRow("ChangeEnforcer in-config", f1(b.NsPerPacket), fmt.Sprintf("%.2fx", b.NsPerPacket/a.NsPerPacket))
	t.AddRow("separate-VM sandbox", f1(sepNs), fmt.Sprintf("%.2fx", sepNs/a.NsPerPacket))
	t.Notes = append(t.Notes,
		"static checking makes the sandbox unnecessary for most configurations (§7.2: 'luckily, sandboxing is not needed in the first place')")
	return t
}
