package api

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/replication"
	"github.com/in-net/innet/internal/topology"
)

func TestHealthEndpoint(t *testing.T) {
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
	c := NewClient(ts.URL)

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if len(h.Platforms) != 3 {
		t.Errorf("platforms = %v", h.Platforms)
	}
	for name, up := range h.Platforms {
		if !up {
			t.Errorf("platform %s reported down on a fresh controller", name)
		}
	}

	ctl.MarkPlatformDown("Platform1")
	h, err = c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Platforms["Platform1"] {
		t.Errorf("after outage: %+v", h)
	}
}

func TestModuleInfoCarriesStatus(t *testing.T) {
	_, c := newTestServer(t)
	dep, err := c.Deploy(DeployRequest{
		Tenant: "erin", ModuleName: "dns", Stock: "geo-dns", Trust: "third-party",
	})
	if err != nil {
		t.Fatal(err)
	}
	mods, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 1 || mods[0].Status != "active" {
		t.Errorf("list = %+v", mods)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Deployments["active"] != 1 {
		t.Errorf("deployments = %v", h.Deployments)
	}
	_ = dep
}

func TestClientRetriesTransientErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","platforms":{},"deployments":{}}`))
	}))
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL)
	var slept []time.Duration
	c.Sleep = func(d time.Duration) { slept = append(slept, d) }
	c.RetryBase = 10 * time.Millisecond

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times", len(slept))
	}
	// Jittered exponential backoff: attempt n waits in
	// [base/2, 3*base/2) with base doubling each round.
	base := 10 * time.Millisecond
	for i, d := range slept {
		if d < base/2 || d >= base+base/2 {
			t.Errorf("sleep %d = %v outside [%v, %v)", i, d, base/2, base+base/2)
		}
		base *= 2
	}
}

func TestClientRetriesExhaust(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL)
	c.Retries = 2
	c.Sleep = func(time.Duration) {}
	if _, err := c.Health(); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3 (1 + 2 retries)", calls.Load())
	}
}

func TestClientDoesNotRetryRejections(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write([]byte(`{"error":"no"}`))
	}))
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL)
	c.Sleep = func(time.Duration) { t.Error("slept on a non-retryable status") }
	if _, err := c.Deploy(DeployRequest{}); err == nil {
		t.Fatal("422 reported success")
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d; controller refusals must not be retried", calls.Load())
	}
}

func TestClientRetriesTransportErrors(t *testing.T) {
	// A connection-refused address: transport errors retry too.
	c := NewClient("http://127.0.0.1:1")
	c.Retries = 2
	n := 0
	c.Sleep = func(time.Duration) { n++ }
	if _, err := c.Health(); err == nil {
		t.Fatal("dead endpoint reported success")
	}
	if n != 2 {
		t.Errorf("slept %d times, want 2", n)
	}
}

// GET /v1/health serves replication.Info as it is. The bytes below are
// pinned: a standby at term 0 whose one peer never connected reports
// the peer with acked_seq 0 and no term_connected.
func TestHealthReplicationBytes(t *testing.T) {
	ctl, _, node := replNode(t, replication.Config{
		Role:       controller.RoleStandby,
		ListenAddr: "127.0.0.1:0",
		Peers:      []string{"127.0.0.1:1"},
		Dial:       func(string) (net.Conn, error) { return nil, errors.New("unreachable") },
	})
	srv := NewServer(ctl)
	srv.AttachReplication(node)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	const want = `{"status":"ok","platforms":{"Platform1":true,"Platform2":true,"Platform3":true},"deployments":{},"cache":{"hits":0,"misses":0,"evictions":0,"invalidations":0,"entries":0},"replication":{"role":"standby","term":0,"seq":0,"lag_records":0,"peers":1,"cluster_size":2,"majority":2,"peer_detail":[{"addr":"127.0.0.1:1","acked_seq":0,"lag":0,"connected":false}]}}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("health body:\n got %s\nwant %s", got, want)
	}
}
