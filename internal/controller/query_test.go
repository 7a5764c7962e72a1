package controller

import (
	"strings"
	"testing"

	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/platform"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
)

func newSim() *netsim.Sim { return netsim.New(1) }

func TestQueryReachability(t *testing.T) {
	c := newController(t)
	// UDP reachability from a client to the Internet holds on Fig. 3.
	res, err := c.Query("reach from client udp -> internet")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Errorf("udp out: %s", res.Reason)
	}
	if res.Timings.Compile <= 0 || res.Timings.Check <= 0 {
		t.Error("timings not recorded")
	}
	// Forcing UDP through the HTTP optimizer cannot hold.
	res2, err := c.Query("reach from internet udp -> HTTPOptimizer -> client")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Satisfied {
		t.Error("impossible requirement satisfied")
	}
	if res2.Reason == "" {
		t.Error("no reason on failure")
	}
}

func TestQuerySeesDeployedModules(t *testing.T) {
	c := newController(t)
	// Before deployment, nothing answers at the batcher.
	if _, err := c.Query("reach from internet udp -> Batcher:dst:0 -> client"); err == nil {
		t.Error("query against unknown module should error")
	}
	if _, err := c.Deploy(batcherRequest()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("reach from internet udp -> Batcher:dst:0 -> client")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Errorf("deployed module unreachable: %s", res.Reason)
	}
}

func TestAmplificationOptionSandboxesUDPResponders(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithOptions(topo, "", Options{BanConnectionlessReplies: true})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := c.Deploy(Request{
		Tenant: "dns-co", ModuleName: "dns", Stock: StockGeoDNS,
		Trust: security.ThirdParty, Whitelist: []string{"192.0.2.1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Sandboxed {
		t.Error("udp responder should be sandboxed under the amplification policy")
	}
	// The TCP reverse proxy remains sandbox-free.
	dep2, err := c.Deploy(Request{
		Tenant: "dns-co", ModuleName: "rp", Stock: StockReverseProxy,
		Trust: security.ThirdParty, Whitelist: []string{"192.0.2.1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep2.Sandboxed {
		t.Error("tcp responder needlessly sandboxed")
	}
}

func TestAddressPoolExhaustion(t *testing.T) {
	// A platform with a /30 pool has two usable module addresses;
	// the third deployment must be refused with a pool-exhausted
	// reason, and killing one frees an address.
	topo := topology.New("tiny", mustPrefix(t, "10.1.0.0/16"))
	if err := topo.AddEndpoint("internet"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddEndpoint("client"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddRouter("r1",
		topology.RouteTo("198.51.100.0/30", 1),
		topology.RouteTo("10.1.0.0/16", 2),
		topology.RouteTo("0.0.0.0/0", 0)); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddPlatform("p", mustPrefix(t, "198.51.100.0/30"), "r1", 0); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(topo.Connect("internet", 0, "r1", 0))
	must(topo.Connect("r1", 0, "internet", 0))
	must(topo.Connect("r1", 1, "p", 0))
	must(topo.Connect("p", 0, "r1", 1))
	must(topo.Connect("r1", 2, "client", 0))
	must(topo.Connect("client", 0, "r1", 0))
	c, err := New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	deploy := func(name string) (*Deployment, error) {
		return c.Deploy(Request{
			Tenant: "t", ModuleName: name, Trust: security.ThirdParty,
			Whitelist: []string{"192.0.2.1"},
			Config: `
in :: FromNetfront();
fwd :: SetIPDst(192.0.2.1);
out :: ToNetfront();
in -> fwd -> out;
`,
		})
	}
	d1, err := deploy("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deploy("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := deploy("c"); err == nil {
		t.Fatal("third module fit in a /30 pool")
	} else if !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("error = %v", err)
	}
	// Freeing an address admits a new module.
	if err := c.Kill(d1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := deploy("d"); err != nil {
		t.Errorf("deploy after kill: %v", err)
	}
}

func mustPrefix(t *testing.T, s string) packet.Prefix {
	t.Helper()
	return packet.MustParsePrefix(s)
}

func TestQueryBadInput(t *testing.T) {
	c := newController(t)
	if _, err := c.Query("nonsense"); err == nil {
		t.Error("bad requirements accepted")
	}
}

func TestStatefulDetection(t *testing.T) {
	c := newController(t)
	dep, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	// The batcher holds buffered packets (TimedUnqueue): stateful.
	spec := platform.SpecOf(dep.DeploymentRecord)
	if spec.Addr != dep.Addr || !spec.Stateful || spec.Kind != platform.ClickOS {
		t.Errorf("spec = %+v", spec)
	}
	if !strings.Contains(spec.Config, "TimedUnqueue") {
		t.Error("spec config lost the batcher")
	}
	// A stateless firewall module.
	dep2, err := c.Deploy(Request{
		Tenant: "bob", ModuleName: "fw", Trust: security.ThirdParty,
		Whitelist: []string{"192.0.2.1"},
		Config: `
in :: FromNetfront();
f :: IPFilter(allow udp, deny all);
fwd :: SetIPDst(192.0.2.1);
out :: ToNetfront();
in -> f -> fwd -> out;
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if platform.SpecOf(dep2.DeploymentRecord).Stateful {
		t.Error("stateless firewall flagged stateful")
	}
}

func TestDeployedPlatformSpecRegisters(t *testing.T) {
	// The control-plane output must be directly consumable by the
	// platform simulator.
	c := newController(t)
	dep, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim()
	p := platform.New(sim, platform.DefaultModel(), 1024)
	if err := p.Register(platform.SpecOf(dep.DeploymentRecord)); err != nil {
		t.Fatalf("platform rejected the deployed spec: %v", err)
	}
}
