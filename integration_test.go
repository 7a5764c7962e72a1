package innet

import (
	"strings"
	"testing"

	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/platform"
)

// TestEndToEndBatcher walks the full life of the paper's Fig. 4
// module: controller verification and placement, registration on the
// hosting platform, on-the-fly VM boot, runtime filtering, rewriting
// and batching.
func TestEndToEndBatcher(t *testing.T) {
	topo, err := Fig3Topology()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := ctl.Deploy(Request{
		Tenant:     "alice",
		ModuleName: "Batcher",
		Config: `
FromNetfront() ->
IPFilter(allow udp port 1500) ->
IPRewriter(pattern - - 10.1.15.133 - 0 0)
-> TimedUnqueue(2,100)
-> dst::ToNetfront()
`,
		Requirements: "reach from internet udp -> Batcher:dst:0 dst 10.1.15.133 -> client dst port 1500 const payload",
		Trust:        TrustClient,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Hand the deployment to the hosting platform, as innetd's
	// integration would.
	sim := netsim.New(1)
	pl := platform.New(sim, platform.DefaultModel(), 16*1024)
	if err := pl.Register(platform.SpecOf(dep.DeploymentRecord)); err != nil {
		t.Fatal(err)
	}

	var out []*packet.Packet
	send := func(proto packet.Proto, dport uint16) {
		pl.Deliver(&packet.Packet{
			Protocol: proto,
			SrcIP:    packet.MustParseIP("8.8.8.8"),
			DstIP:    dep.Addr,
			SrcPort:  4000, DstPort: dport, TTL: 64,
			Payload: []byte("notification"),
		}, func(iface int, p *packet.Packet) { out = append(out, p) })
	}
	send(packet.ProtoUDP, 1500)
	send(packet.ProtoUDP, 1500)
	send(packet.ProtoTCP, 1500) // filtered by the module
	send(packet.ProtoUDP, 99)   // wrong port, filtered
	sim.Run()

	if len(out) != 2 {
		t.Fatalf("module emitted %d packets, want 2", len(out))
	}
	for _, p := range out {
		if got := packet.IPString(p.DstIP); got != "10.1.15.133" {
			t.Errorf("emitted dst = %s", got)
		}
		if string(p.Payload) != "notification" {
			t.Error("payload modified (the const payload invariant)")
		}
		// The batch released after the TimedUnqueue interval.
		if p.Timestamp == 0 && sim.Now() < netsim.Seconds(2) {
			t.Error("batch released before the batching interval")
		}
	}
	if sim.Now() < netsim.Seconds(2) {
		t.Errorf("simulation ended at %v, before the batch interval", sim.Now())
	}
}

// TestEndToEndSandboxEnforcement proves the runtime keeps the promise
// static analysis could not: a sandboxed tunnel module can
// decapsulate traffic to its whitelisted destinations, but the
// injected ChangeEnforcer drops decapsulated packets aimed anywhere
// else (§4.4, §7.1's tunnel row).
func TestEndToEndSandboxEnforcement(t *testing.T) {
	topo, err := Fig3Topology()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := ctl.Deploy(Request{
		Tenant:     "bob",
		ModuleName: "tun",
		Config: `
in :: FromNetfront();
dec :: IPDecap();
snat :: SetIPSrc($MODULE_IP);
out :: ToNetfront();
in -> dec -> snat -> out;
`,
		Trust:     TrustThirdParty,
		Whitelist: []string{"192.0.2.1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Sandboxed {
		t.Fatal("tunnel must be sandboxed")
	}
	if !strings.Contains(dep.Config, "ChangeEnforcer") {
		t.Fatal("sandbox element missing from deployed config")
	}

	sim := netsim.New(1)
	pl := platform.New(sim, platform.DefaultModel(), 16*1024)
	if err := pl.Register(platform.SpecOf(dep.DeploymentRecord)); err != nil {
		t.Fatal(err)
	}

	encap := func(innerDst string) *packet.Packet {
		inner := &packet.Packet{
			Protocol: packet.ProtoUDP,
			SrcIP:    packet.MustParseIP("10.9.9.9"),
			DstIP:    packet.MustParseIP(innerDst),
			SrcPort:  7, DstPort: 7, TTL: 64,
			Payload: []byte("tunneled"),
		}
		return &packet.Packet{
			Protocol: packet.ProtoUDP,
			SrcIP:    packet.MustParseIP("8.8.4.4"),
			DstIP:    dep.Addr,
			SrcPort:  5000, DstPort: 5000, TTL: 64,
			Payload: inner.Serialize(nil),
		}
	}
	var out []*packet.Packet
	sink := func(iface int, p *packet.Packet) { out = append(out, p) }

	// Whitelisted inner destination: the enforcer lets it out.
	pl.Deliver(encap("192.0.2.1"), sink)
	sim.Run()
	if len(out) != 1 || packet.IPString(out[0].DstIP) != "192.0.2.1" {
		t.Fatalf("whitelisted decap blocked: %v", out)
	}
	// Unauthorized inner destination: dropped by the enforcer even
	// though the module itself would forward it.
	pl.Deliver(encap("203.0.113.9"), sink)
	sim.Run()
	if len(out) != 1 {
		t.Fatalf("unauthorized decap escaped the sandbox: %v", out[len(out)-1])
	}
	// Implicit authorization: replying to the outer source works.
	pl.Deliver(encap("8.8.4.4"), sink)
	sim.Run()
	if len(out) != 2 || packet.IPString(out[1].DstIP) != "8.8.4.4" {
		t.Fatalf("implicitly-authorized reply blocked: %v", out)
	}
}

// TestEndToEndOperatorRejectionNeverRuns checks the negative path: a
// module the controller rejects is never registered, so its traffic
// dies at the platform switch.
func TestEndToEndOperatorRejectionNeverRuns(t *testing.T) {
	topo, err := Fig3Topology()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ctl.Deploy(Request{
		Tenant: "mallory", ModuleName: "cannon", Trust: TrustThirdParty,
		Config: `
in :: FromNetfront();
atk :: SetIPDst(203.0.113.99);
out :: ToNetfront();
in -> atk -> out;
`,
	})
	if err == nil {
		t.Fatal("cannon deployed")
	}
	sim := netsim.New(1)
	pl := platform.New(sim, platform.DefaultModel(), 16*1024)
	pl.Deliver(&packet.Packet{
		Protocol: packet.ProtoUDP,
		SrcIP:    packet.MustParseIP("1.2.3.4"),
		DstIP:    packet.MustParseIP("198.51.100.1"),
		TTL:      64,
	}, func(int, *packet.Packet) { t.Fatal("traffic processed for a rejected module") })
	sim.Run()
	if pl.DroppedNoModule != 1 {
		t.Error("traffic not dropped")
	}
}
