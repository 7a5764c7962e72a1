package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/topology"
)

// newObservableServer is newTelemetryServer plus the observability
// additions: the unified drop hub and the flight recorder, wired
// through controller, simulator and server.
func newObservableServer(t *testing.T) (*httptest.Server, *Client, *telemetry.Recorder, *telemetry.Drops) {
	t.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	st, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ctl.AttachJournal(st)

	reg := telemetry.New()
	rec := telemetry.NewRecorder(0)
	drops := telemetry.NewDrops()
	ctl.AttachTelemetry(reg, telemetry.NewTracer(telemetry.DefaultTraceRing))
	ctl.SetRecorder(rec)
	ctl.RegisterDrops(drops)
	st.SetRecorder(rec)
	sim := NewSimulator(topo.Platforms())
	sim.RegisterMetrics(reg)
	sim.RegisterDrops(drops)
	sim.SetRecorder(rec)
	drops.Attach(reg)

	srv := NewServerWithSimulator(ctl, sim)
	srv.AttachTelemetry(reg, nil)
	srv.AttachObservability(drops, rec)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL), rec, drops
}

// TestPathTraceEndpoint is the golden JSON-shape test for GET
// /v1/pathtrace: a module deployed with trace_every=1 must yield one
// complete trace per injected packet, with every hop field present in
// the raw JSON.
func TestPathTraceEndpoint(t *testing.T) {
	ts, c, _, _ := newObservableServer(t)
	dep, err := c.Deploy(DeployRequest{
		Tenant: "erin", ModuleName: "dns", Stock: "geo-dns",
		Trust: "third-party", TraceEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(InjectRequest{Dst: dep.Addr, DstPort: 53, Count: 3}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/pathtrace?module=dns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var raw struct {
		Module string            `json:"module"`
		Addr   string            `json:"addr"`
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if raw.Module != "dns" || raw.Addr != dep.Addr {
		t.Errorf("resolved module=%q addr=%q, want dns/%s", raw.Module, raw.Addr, dep.Addr)
	}
	if len(raw.Traces) != 3 {
		t.Fatalf("got %d traces, want 3 (trace_every=1, 3 packets)", len(raw.Traces))
	}
	var trace map[string]json.RawMessage
	if err := json.Unmarshal(raw.Traces[0], &trace); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"seq", "time", "flow_hash", "dataplane", "hops"} {
		if _, ok := trace[key]; !ok {
			t.Errorf("trace missing %q: %s", key, raw.Traces[0])
		}
	}
	var hops []map[string]json.RawMessage
	if err := json.Unmarshal(trace["hops"], &hops); err != nil {
		t.Fatal(err)
	}
	if len(hops) == 0 {
		t.Fatal("trace has no hops")
	}
	for _, key := range []string{"elem", "in_port", "out_port", "verdict"} {
		if _, ok := hops[0][key]; !ok {
			t.Errorf("hop missing %q: %s", key, trace["hops"])
		}
	}

	// Typed client agrees, and the traces are complete: every traversal
	// ends in a terminal verdict (tx/drop/queued), never mid-walk.
	got, err := c.PathTraces("dns", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 3 {
		t.Fatalf("client got %d traces, want 3", len(got.Traces))
	}
	for _, tr := range got.Traces {
		last := tr.Hops[len(tr.Hops)-1].Verdict
		if last == "forward" {
			t.Errorf("trace %d ends mid-walk: %+v", tr.Seq, tr.Hops)
		}
	}
	// Deployment-ID resolution works too.
	if byID, err := c.PathTraces(got.Module, 0); err != nil || len(byID.Traces) != 3 {
		t.Errorf("resolve by name: traces=%v err=%v", byID, err)
	}
}

// TestPathTraceEndpointErrors pins the error contract: 400 without a
// module, 404 for an unknown one, 501 without the simulator.
func TestPathTraceEndpointErrors(t *testing.T) {
	ts, _, _, _ := newObservableServer(t)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/pathtrace", http.StatusBadRequest},
		{"/v1/pathtrace?module=ghost", http.StatusNotFound},
		{"/v1/pathtrace?module=dns&n=zebra", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s status = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}

	bare, _ := newTestServer(t)
	for _, path := range []string{"/v1/pathtrace?module=dns", "/v1/events"} {
		resp, err := http.Get(bare.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s on bare server status = %d, want 501", path, resp.StatusCode)
		}
	}
}

// TestEventsEndpoint is the golden JSON-shape test for GET /v1/events:
// recorded events come back newest first with every field present.
func TestEventsEndpoint(t *testing.T) {
	ts, c, rec, _ := newObservableServer(t)
	rec.Record("platform-outage", "platform", "", "p1")
	rec.Record("vm-crash", "platform", "crash", "10.0.0.1")
	rec.Record("election-won", "replication", "term 2 after 100ms leader silence", ":9999")

	resp, err := http.Get(ts.URL + "/v1/events?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Events []map[string]json.RawMessage `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(raw.Events))
	}
	for _, key := range []string{"seq", "time", "type", "source"} {
		if _, ok := raw.Events[0][key]; !ok {
			t.Errorf("event missing %q: %v", key, raw.Events[0])
		}
	}

	events, err := c.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("client got %d events, want 3", len(events))
	}
	if events[0].Type != "election-won" || events[2].Type != "platform-outage" {
		t.Errorf("events not newest-first: %+v", events)
	}
	if events[0].Seq <= events[1].Seq {
		t.Errorf("event seqs not decreasing: %d then %d", events[0].Seq, events[1].Seq)
	}
}

// TestHealthDropReasons asserts the unified drop rollup and the
// per-module pipeline map ride /v1/health: an admission rejection
// shows up under site "admission", and the deployed module appears in
// pipeline.modules.
func TestHealthDropReasons(t *testing.T) {
	ts, c, _, _ := newObservableServer(t)
	if _, err := c.Deploy(DeployRequest{
		Tenant: "erin", ModuleName: "dns", Stock: "geo-dns", Trust: "third-party",
	}); err != nil {
		t.Fatal(err)
	}
	// An admission the placement stage refuses — one attributed
	// admission drop.
	if _, err := c.Deploy(DeployRequest{
		Tenant: "erin", ModuleName: "bogus", Stock: "no-such-stock", Trust: "third-party",
	}); err == nil {
		t.Fatal("unknown-stock deploy unexpectedly admitted")
	}

	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		DropReasons map[string]map[string]uint64 `json:"drop_reasons"`
		Pipeline    struct {
			Modules map[string]string `json:"modules"`
		} `json:"pipeline"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if got := raw.DropReasons["admission"]["rejected"]; got != 1 {
		t.Errorf("drop_reasons[admission][rejected] = %d, want 1 (full rollup: %v)", got, raw.DropReasons)
	}
	for _, site := range []string{"platform", "pipeline", "vswitch"} {
		if _, ok := raw.DropReasons[site]; !ok {
			t.Errorf("drop rollup missing site %q: %v", site, raw.DropReasons)
		}
	}
	if _, ok := raw.Pipeline.Modules["dns"]; !ok {
		t.Errorf("pipeline.modules missing dns: %v", raw.Pipeline.Modules)
	}

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.DropReasons == nil || h.Pipeline == nil || h.Pipeline.Modules == nil {
		t.Errorf("typed health lost the rollups: drops=%v pipeline=%+v", h.DropReasons, h.Pipeline)
	}
}
