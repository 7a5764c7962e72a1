package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/in-net/innet/internal/controller"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/topology"
)

const batcher = `
FromNetfront() ->
IPFilter(allow udp port 1500) ->
IPRewriter(pattern - - 10.1.15.133 - 0 0)
-> TimedUnqueue(120,100)
-> dst::ToNetfront()
`

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(ctl))
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL)
}

func TestDeployListKillOverHTTP(t *testing.T) {
	_, c := newTestServer(t)
	dep, err := c.Deploy(DeployRequest{
		Tenant:     "alice",
		ModuleName: "Batcher",
		Config:     batcher,
		Requirements: `
reach from internet udp -> Batcher:dst:0 dst 10.1.15.133 -> client dst port 1500
`,
		Trust: "client",
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Platform != "Platform3" || dep.ID == "" {
		t.Errorf("deploy = %+v", dep)
	}
	if dep.CompileMS <= 0 || dep.CheckMS <= 0 {
		t.Errorf("timings = %+v", dep)
	}
	mods, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 1 || mods[0].ID != dep.ID || mods[0].Tenant != "alice" {
		t.Errorf("list = %+v", mods)
	}
	if err := c.Kill(dep.ID); err != nil {
		t.Fatal(err)
	}
	mods, _ = c.List()
	if len(mods) != 0 {
		t.Error("kill did not remove module")
	}
	if err := c.Kill(dep.ID); err == nil {
		t.Error("double kill accepted")
	}
}

func TestRejectionMapsTo422(t *testing.T) {
	_, c := newTestServer(t)
	_, err := c.Deploy(DeployRequest{
		Tenant: "mallory", ModuleName: "atk", Trust: "third-party",
		Config: `
in :: FromNetfront();
a :: SetIPDst(203.0.113.9);
out :: ToNetfront();
in -> a -> out;
`,
	})
	if err == nil {
		t.Fatal("attack module deployed")
	}
	if !strings.Contains(err.Error(), "422") {
		t.Errorf("error = %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	ts, c := newTestServer(t)
	if _, err := c.Deploy(DeployRequest{Trust: "sudo"}); err == nil {
		t.Error("bad trust accepted")
	}
	// Malformed JSON.
	resp, err := ts.Client().Post(ts.URL+"/v1/modules", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	// Wrong method.
	req, _ := ts.Client().Head(ts.URL + "/v1/modules")
	if req.StatusCode != 405 {
		t.Errorf("HEAD status = %d", req.StatusCode)
	}
}

func TestClassesEndpoint(t *testing.T) {
	_, c := newTestServer(t)
	classes, err := c.Classes()
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) < 20 {
		t.Errorf("classes = %d", len(classes))
	}
}

func TestGetModuleByID(t *testing.T) {
	ts, c := newTestServer(t)
	dep, err := c.Deploy(DeployRequest{
		Tenant: "bob", ModuleName: "dns", Stock: "geo-dns", Trust: "third-party",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/modules/" + dep.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	resp2, _ := ts.Client().Get(ts.URL + "/v1/modules/nope")
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("missing module status = %d", resp2.StatusCode)
	}
}

func TestParseTrust(t *testing.T) {
	for in, ok := range map[string]bool{
		"": true, "client": true, "Operator": true, "third-party": true,
		"root": false,
	} {
		if _, err := ParseTrust(in); (err == nil) != ok {
			t.Errorf("ParseTrust(%q) err=%v", in, err)
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts, c := newTestServer(t)
	res, err := c.Query("reach from client udp -> internet")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied || res.CheckMS <= 0 {
		t.Errorf("query = %+v", res)
	}
	res2, err := c.Query("reach from internet udp -> HTTPOptimizer -> client")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Satisfied || res2.Reason == "" {
		t.Errorf("impossible query = %+v", res2)
	}
	if _, err := c.Query("nonsense"); err == nil {
		t.Error("bad query accepted")
	}
	// Wrong method.
	resp, err := ts.Client().Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET query status = %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestOversizedBodyMapsTo413(t *testing.T) {
	ts, _ := newTestServer(t)
	// Valid JSON throughout, so the decoder keeps reading until the
	// byte cap — not a syntax error — stops it.
	big := `{"config":"` + strings.Repeat("x", MaxRequestBody+1) + `"}`
	for _, path := range []string{"/v1/modules", "/v1/query"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, resp.StatusCode)
		}
		if derr != nil || !strings.Contains(e.Error, "exceeds") {
			t.Errorf("%s: error body = %+v (%v)", path, e, derr)
		}
	}
}

func TestDeployTimeoutMapsTo503AndRollsBack(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl)
	srv.SetDeployTimeout(10 * time.Millisecond)
	release := make(chan struct{})
	rolledBack := make(chan struct{})
	srv.testSlowDeploy = func() { <-release }
	srv.testRollbackDone = func() { close(rolledBack) }
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retries = 0 // a retried 503 would pile up more blocked workers

	_, err = c.Deploy(DeployRequest{Tenant: "slow", ModuleName: "m", Config: batcher, Trust: "client"})
	if err == nil {
		t.Fatal("slow deploy did not time out")
	}
	if !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error = %v", err)
	}

	// Let the abandoned worker finish: its late success must be
	// rolled back so the 503 the client saw stays true.
	close(release)
	select {
	case <-rolledBack:
	case <-time.After(5 * time.Second):
		t.Fatal("rollback never ran")
	}
	if live := len(ctl.Deployments()); live != 0 {
		t.Fatalf("late deployment not rolled back: %d live", live)
	}
	if n := ctl.State().Placed; n != 1 {
		t.Errorf("Placed = %d, want 1 (worker did place before rollback)", n)
	}
}

// killFailJournal admits fine but refuses kill appends, simulating a
// journal disk that filled up after admission: the write-ahead kill
// cannot be made durable, so Kill fails.
type killFailJournal struct{}

func (killFailJournal) Append(r journal.Record) error {
	if r.Type == journal.EvKill {
		return errors.New("disk full")
	}
	return nil
}

func TestDeployTimeoutRollbackFailureSurfacesInHealth(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	ctl.AttachJournal(killFailJournal{})
	srv := NewServer(ctl)
	srv.SetDeployTimeout(10 * time.Millisecond)
	release := make(chan struct{})
	rolledBack := make(chan struct{})
	srv.testSlowDeploy = func() { <-release }
	srv.testRollbackDone = func() { close(rolledBack) }
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retries = 0

	if _, err := c.Deploy(DeployRequest{Tenant: "slow", ModuleName: "m", Config: batcher, Trust: "client"}); err == nil {
		t.Fatal("slow deploy did not time out")
	}
	close(release)
	select {
	case <-rolledBack:
	case <-time.After(5 * time.Second):
		t.Fatal("rollback never ran")
	}

	// The kill's write-ahead append failed, so the late placement is
	// still live — a zombie the 503 promised was rolled back. It must
	// at least be observable: health degrades and reports the fault.
	if live := len(ctl.Deployments()); live != 1 {
		t.Fatalf("deployments = %d, want 1 (kill cannot be journaled)", live)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Errorf("health status = %q, want degraded", h.Status)
	}
	found := false
	for _, e := range h.Errors {
		if strings.Contains(e, "rollback failed") {
			found = true
		}
	}
	if !found {
		t.Errorf("health errors = %v, want a deploy-timeout rollback failure", h.Errors)
	}
}
