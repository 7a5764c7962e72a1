package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
)

func newSimulatedServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(topo.Platforms())
	ts := httptest.NewServer(NewServerWithSimulator(ctl, sim))
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL)
}

func TestSimulatedDeployAndInject(t *testing.T) {
	_, c := newSimulatedServer(t)
	dep, err := c.Deploy(DeployRequest{
		Tenant: "alice", ModuleName: "Batcher", Trust: "client",
		Config: `
FromNetfront() ->
IPFilter(allow udp port 1500) ->
IPRewriter(pattern - - 10.1.15.133 - 0 0)
-> TimedUnqueue(2,100)
-> dst::ToNetfront()
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	// UDP on the right port: batched, rewritten, emitted.
	res, err := c.Inject(InjectRequest{
		Dst: dep.Addr, Proto: "udp", DstPort: 1500, Payload: "ping", Count: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 2 || len(res.Emitted) != 2 || !res.BootedVM {
		t.Fatalf("inject = %+v", res)
	}
	for _, e := range res.Emitted {
		if e.Dst != "10.1.15.133" || e.Payload != "ping" {
			t.Errorf("emitted = %+v", e)
		}
		// The 2 s batching interval shows up as virtual latency.
		if e.LatencyMS < 2000 {
			t.Errorf("latency = %.1f ms, batching not visible", e.LatencyMS)
		}
	}
	// TCP is filtered by the module.
	res2, err := c.Inject(InjectRequest{Dst: dep.Addr, Proto: "tcp", DstPort: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Emitted) != 0 {
		t.Errorf("tcp passed the filter: %+v", res2.Emitted)
	}
	if res2.BootedVM {
		t.Error("vm should already be resident")
	}
	// Kill unregisters the module from the simulation.
	if err := c.Kill(dep.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(InjectRequest{Dst: dep.Addr}); err == nil {
		t.Error("inject after kill accepted")
	}
}

func TestInjectValidation(t *testing.T) {
	_, c := newSimulatedServer(t)
	cases := []InjectRequest{
		{Dst: "not-an-ip"},
		{Dst: "203.0.113.1"}, // no module there
		{Dst: "198.51.100.1", Proto: "carrier-pigeon"},
		{Dst: "198.51.100.1", Count: 1 << 20},
		{Dst: "198.51.100.1", Src: "nope"},
	}
	for i, req := range cases {
		if _, err := c.Inject(req); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestInjectWithoutSimulatorIs501(t *testing.T) {
	_, c := newTestServer(t) // no simulator attached
	_, err := c.Inject(InjectRequest{Dst: "198.51.100.1"})
	if err == nil || !strings.Contains(err.Error(), "501") {
		t.Errorf("err = %v", err)
	}
}

func TestSimulatedSandboxedTunnel(t *testing.T) {
	// The runtime enforcement story over HTTP: a sandboxed tunnel's
	// enforcer blocks unauthorized inner destinations.
	_, c := newSimulatedServer(t)
	dep, err := c.Deploy(DeployRequest{
		Tenant: "bob", ModuleName: "tun", Trust: "third-party",
		Whitelist: []string{"192.0.2.1"},
		Config: `
in :: FromNetfront();
dec :: IPDecap();
snat :: SetIPSrc($MODULE_IP);
out :: ToNetfront();
in -> dec -> snat -> out;
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Sandboxed {
		t.Fatal("tunnel not sandboxed")
	}
	// Inject a packet whose payload is NOT a valid inner packet: the
	// decapsulator drops it, nothing escapes.
	res, err := c.Inject(InjectRequest{Dst: dep.Addr, Payload: "garbage"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emitted) != 0 {
		t.Errorf("malformed tunnel payload emitted: %+v", res.Emitted)
	}
}

// The one rollback the server keeps: a placement the simulated
// dataplane cannot host is killed again, so the client's 500 is true.
// The simulator here lacks the platform a geo-dns module is placed on.
func TestUninstallableDeployRollsBack(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for _, name := range topo.Platforms() {
		if name != "Platform1" {
			hosts = append(hosts, name)
		}
	}
	sim := NewSimulator(hosts)
	ts := httptest.NewServer(NewServerWithSimulator(ctl, sim))
	t.Cleanup(ts.Close)
	body, _ := json.Marshal(DeployRequest{Tenant: "erin", ModuleName: "dns", Stock: controller.StockGeoDNS, Trust: "third-party"})
	resp, err := http.Post(ts.URL+"/v1/modules", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(msg), "Platform1") {
		t.Fatalf("deploy onto a missing platform = %d %s, want 500 naming Platform1", resp.StatusCode, msg)
	}
	if deps := ctl.Deployments(); len(deps) != 0 {
		t.Errorf("rolled-back deploy left %d deployments", len(deps))
	}
	for name, p := range sim.platforms {
		if n, r := p.RegisteredModules(), sim.switches[name].Rules(); n != 0 || r != 0 {
			t.Errorf("%s holds %d modules and %d rules after the rollback", name, n, r)
		}
	}
}

// recordTee hands every record a leader commits, with its sequence
// number, to a standby's catch-up path.
type recordTee struct {
	standby *controller.Controller
	seq     uint64
}

func (j *recordTee) Append(r journal.Record) error {
	j.seq++
	r.Seq = j.seq
	return j.standby.ApplyRecord(r, nil)
}

// A standby that runs the simulator from boot holds every module it
// received by replication: once promoted, it injects into them.
func TestPromotedStandbyInjectsReplicatedModule(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	leader, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	standby, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	standby.SetRole(controller.RoleStandby)
	ts := httptest.NewServer(NewServerWithSimulator(standby, NewSimulator(topo.Platforms())))
	t.Cleanup(ts.Close)
	leader.AttachJournal(&recordTee{standby: standby})
	dep, err := leader.Deploy(controller.Request{Tenant: "erin", ModuleName: "dns", Stock: controller.StockGeoDNS, Trust: security.ThirdParty})
	if err != nil {
		t.Fatal(err)
	}

	standby.SetRole(controller.RoleLeader)
	res, err := NewClient(ts.URL).Inject(InjectRequest{Dst: packet.IPString(dep.Addr), Proto: "udp", DstPort: 53, Count: 2})
	if err != nil {
		t.Fatalf("inject into the replicated module: %v", err)
	}
	if res.Platform != dep.Platform || len(res.Emitted) != 2 {
		t.Errorf("inject = %+v, want 2 packets emitted on %s", res, dep.Platform)
	}
}

// The simulator is reached from the controller's watcher (under the
// controller's lock) and from inject handlers at once: concurrent
// deploys, injects and kills must neither race nor deadlock. Run with
// -race.
func TestSimulatorConcurrentDeployInjectKill(t *testing.T) {
	_, c := newSimulatedServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dep, err := c.Deploy(DeployRequest{Tenant: fmt.Sprintf("t%d", i), ModuleName: fmt.Sprintf("dns%d", i), Stock: controller.StockGeoDNS, Trust: "third-party"})
			if err != nil {
				t.Error(err)
				return
			}
			if res, err := c.Inject(InjectRequest{Dst: dep.Addr, Proto: "udp", DstPort: 53}); err != nil || len(res.Emitted) != 1 {
				t.Errorf("inject into %s = %+v, %v", dep.ID, res, err)
			}
			if err := c.Kill(dep.ID); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}
