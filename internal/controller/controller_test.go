package controller

import (
	"strings"
	"testing"

	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
)

const batcherConfig = `
FromNetfront() ->
IPFilter(allow udp port 1500) ->
IPRewriter(pattern - - 10.1.15.133 - 0 0)
-> TimedUnqueue(120,100)
-> dst::ToNetfront()
`

const batcherRequirements = `
reach from internet udp
-> Batcher:dst:0 dst 10.1.15.133
-> client dst port 1500
const proto && dst port && payload
`

const operatorHTTPPolicy = `
reach from internet tcp src port 80 -> HTTPOptimizer -> client
`

func newController(t *testing.T) *Controller {
	t.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(topo, operatorHTTPPolicy)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func batcherRequest() Request {
	return Request{
		Tenant:       "alice",
		ModuleName:   "Batcher",
		Config:       batcherConfig,
		Requirements: batcherRequirements,
		Trust:        security.Client,
	}
}

func TestDeployBatcherPicksPlatform3(t *testing.T) {
	c := newController(t)
	dep, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	// §4.5: "only Platform 3 applies, since Platforms 1 and 2 are not
	// reachable from the outside".
	if dep.Platform != "Platform3" {
		t.Errorf("platform = %s want Platform3", dep.Platform)
	}
	pool := packet.MustParsePrefix(topology.FixturePlatform3Pool)
	if !pool.Contains(dep.Addr) {
		t.Errorf("address %s not in Platform3 pool", packet.IPString(dep.Addr))
	}
	if dep.Sandboxed {
		t.Error("statically safe module should not be sandboxed")
	}
	if dep.Timings.Compile <= 0 || dep.Timings.Check <= 0 {
		t.Errorf("timings not recorded: %+v", dep.Timings)
	}
	if n := c.State().Placed; n != 1 {
		t.Errorf("Placed = %d", n)
	}
}

func TestDeployDuplicateRejected(t *testing.T) {
	c := newController(t)
	if _, err := c.Deploy(batcherRequest()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(batcherRequest()); err == nil {
		t.Fatal("duplicate deploy accepted")
	}
}

func TestKillFreesName(t *testing.T) {
	c := newController(t)
	dep, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(dep.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(dep.ID); err == nil {
		t.Error("double kill accepted")
	}
	if _, err := c.Deploy(batcherRequest()); err != nil {
		t.Errorf("redeploy after kill failed: %v", err)
	}
}

func TestDeployRejectsBadRequests(t *testing.T) {
	c := newController(t)
	cases := []Request{
		{},                // no name
		{ModuleName: "m"}, // no config
		{ModuleName: "m", Config: "x", Stock: StockGeoDNS}, // both
		{ModuleName: "m", Stock: "no-such-stock"},
		{ModuleName: "m", Config: "not click ::"},
		{ModuleName: "m", Config: batcherConfig, Whitelist: []string{"not-an-ip"}},
		{ModuleName: "m", Config: batcherConfig, Requirements: "gibberish"},
	}
	for i, req := range cases {
		if _, err := c.Deploy(req); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestUnsatisfiableRequirementRejected(t *testing.T) {
	c := newController(t)
	req := batcherRequest()
	// The module only lets udp port 1500 through; requiring tcp at
	// the client cannot hold anywhere.
	req.Requirements = "reach from internet tcp -> Batcher:dst:0 -> client"
	_, err := c.Deploy(req)
	if err == nil {
		t.Fatal("unsatisfiable requirement accepted")
	}
	if _, ok := err.(*RejectionError); !ok {
		t.Errorf("error type %T", err)
	}
	if n := c.State().Rejections; n != 1 {
		t.Errorf("Rejections = %d", n)
	}
}

func TestSpoofingModuleRejected(t *testing.T) {
	c := newController(t)
	_, err := c.Deploy(Request{
		Tenant: "mallory", ModuleName: "spoof", Trust: security.ThirdParty,
		Config: `
in :: FromNetfront();
sp :: SetIPSrc(203.0.113.66);
fwd :: SetIPDst(192.0.2.1);
out :: ToNetfront();
in -> sp -> fwd -> out;
`,
		Whitelist: []string{"192.0.2.1"},
	})
	if err == nil {
		t.Fatal("spoofing module deployed")
	}
	if !strings.Contains(err.Error(), "security") {
		t.Errorf("error = %v", err)
	}
}

func TestTunnelGetsSandboxed(t *testing.T) {
	c := newController(t)
	dep, err := c.Deploy(Request{
		Tenant: "bob", ModuleName: "tun", Trust: security.ThirdParty,
		Config: `
in :: FromNetfront();
dec :: IPDecap();
snat :: SetIPSrc($MODULE_IP);
out :: ToNetfront();
in -> dec -> snat -> out;
`,
		Whitelist: []string{"192.0.2.1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Sandboxed {
		t.Error("tunnel should be sandboxed (Table 1)")
	}
	if !strings.Contains(dep.Config, packet.IPString(dep.Addr)) {
		t.Error("$MODULE_IP placeholder not substituted")
	}
	if !strings.Contains(dep.Config, "ChangeEnforcer") {
		t.Errorf("deployed config lacks the enforcer:\n%s", dep.Config)
	}
	if !strings.Contains(dep.Config, "192.0.2.1") {
		t.Error("enforcer not configured with the whitelist")
	}
}

func TestStockModulesDeploy(t *testing.T) {
	c := newController(t)
	for _, stock := range []string{StockReverseProxy, StockExplicitProxy, StockGeoDNS} {
		dep, err := c.Deploy(Request{
			Tenant: "carol", ModuleName: "stock-" + stock, Stock: stock,
			Trust: security.ThirdParty,
		})
		if err != nil {
			t.Errorf("%s: %v", stock, err)
			continue
		}
		if dep.Sandboxed {
			t.Errorf("%s: mirror-style stock modules are statically safe", stock)
		}
	}
	// The x86 VM stock module is always sandboxed.
	dep, err := c.Deploy(Request{
		Tenant: "carol", ModuleName: "legacy", Stock: StockX86VM,
		Trust: security.ThirdParty, Whitelist: []string{"192.0.2.1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Sandboxed {
		t.Error("x86 VM must be sandboxed")
	}
}

func TestAddressAllocationDistinct(t *testing.T) {
	c := newController(t)
	seen := map[uint32]bool{}
	for i := 0; i < 5; i++ {
		req := batcherRequest()
		req.ModuleName = req.ModuleName + string(rune('A'+i))
		req.Requirements = strings.ReplaceAll(batcherRequirements, "Batcher", req.ModuleName)
		dep, err := c.Deploy(req)
		if err != nil {
			t.Fatal(err)
		}
		if seen[dep.Addr] {
			t.Fatalf("address %s reused", packet.IPString(dep.Addr))
		}
		seen[dep.Addr] = true
	}
	if got := len(c.Deployments()); got != 5 {
		t.Errorf("deployments = %d", got)
	}
}

func TestTransparentRequestOperatorOnly(t *testing.T) {
	c := newController(t)
	req := Request{
		Tenant: "dave", ModuleName: "router", Transparent: true,
		Trust: security.ThirdParty,
		Config: `
in :: FromNetfront();
rt :: LookupIPRoute(0.0.0.0/0 0);
out :: ToNetfront();
in -> rt -> out;
`,
	}
	if _, err := c.Deploy(req); err == nil {
		t.Fatal("third-party transparent module deployed")
	}
	req.Trust = security.Operator
	req.ModuleName = "router2"
	if _, err := c.Deploy(req); err != nil {
		t.Fatalf("operator transparent module rejected: %v", err)
	}
}

func TestOperatorPolicyStillHoldsAfterPlacement(t *testing.T) {
	// Any accepted placement must keep the HTTP-via-optimizer policy
	// intact; deploy several modules and re-verify via a fresh
	// controller compile.
	c := newController(t)
	if _, err := c.Deploy(batcherRequest()); err != nil {
		t.Fatal(err)
	}
	dep, err := c.Deploy(Request{
		Tenant: "erin", ModuleName: "dns", Stock: StockGeoDNS, Trust: security.ThirdParty,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Platform == "" {
		t.Error("no platform")
	}
}

func TestBadOperatorPolicyRejectedAtStartup(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(topo, "this is not a requirement"); err == nil {
		t.Error("bad policy text accepted")
	}
	// A policy that does not hold on the base network fails fast.
	if _, err := New(topo, "reach from internet udp -> HTTPOptimizer -> client"); err == nil {
		t.Error("unsatisfiable base policy accepted")
	}
}

func TestSandboxConfigRewiring(t *testing.T) {
	src := `
in :: FromNetfront();
a :: Counter();
b :: Counter();
out :: ToNetfront();
in -> a -> b -> out;
`
	wrapped, err := SandboxConfig(src, []uint32{packet.MustParseIP("192.0.2.1")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wrapped, "ChangeEnforcer(whitelist 192.0.2.1)") {
		t.Errorf("wrapped:\n%s", wrapped)
	}
	// The wrapped config must build and keep the enforcer on both
	// paths.
	r, err := buildConfig(wrapped)
	if err != nil {
		t.Fatalf("wrapped config does not build: %v\n%s", err, wrapped)
	}
	if r.Element("__sandbox") == nil {
		t.Error("no sandbox element")
	}
	// Errors: multi-interface modules cannot be wrapped.
	multi := `
in0 :: FromNetfront(0);
in1 :: FromNetfront(1);
out :: ToNetfront();
in0 -> out;
`
	if _, err := SandboxConfig(multi, nil); err == nil {
		t.Error("multi-ingress module wrapped")
	}
	if _, err := SandboxConfig(`d :: Discard();`, nil); err == nil {
		t.Error("module without netfronts wrapped")
	}
	if _, err := SandboxConfig(`{{{`, nil); err == nil {
		t.Error("unparsable module wrapped")
	}
}

func BenchmarkDeployFig4(b *testing.B) {
	topo, err := topology.PaperFig3()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(topo, operatorHTTPPolicy)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Deploy(batcherRequest()); err != nil {
			b.Fatal(err)
		}
	}
}
