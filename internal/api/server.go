package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/replication"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/telemetry"

	"github.com/in-net/innet/internal/click"
)

// MaxRequestBody caps every JSON request body. Module configs are
// text; anything past this is either abuse or a mistake, and gets a
// 413 before the decoder buffers it.
const MaxRequestBody = 1 << 20

// DefaultDeployTimeout bounds one POST /v1/modules admission. The
// symbolic-execution budget (controller.Options) already bounds the
// work; this is the client-facing backstop that turns a slow
// admission into a 503 instead of a hung connection.
const DefaultDeployTimeout = 30 * time.Second

// Server exposes a controller over HTTP.
type Server struct {
	ctl *controller.Controller
	sim *Simulator
	mux *http.ServeMux

	deployTimeout time.Duration
	// testSlowDeploy, when set, runs inside the deploy worker before
	// admission starts — a deterministic way for tests to hold the
	// worker past the timeout. testRollbackDone fires after a
	// timed-out worker's outcome has been discarded.
	testSlowDeploy   func()
	testRollbackDone func()

	// mu guards rollbackErr: the first deploy-timeout rollback whose
	// Kill failed, leaving a zombie deployment the client was told was
	// rolled back. Surfaced by GET /v1/health.
	mu          sync.Mutex
	rollbackErr error

	// reg/tracer back GET /v1/metrics and GET /v1/traces and drive the
	// per-endpoint request instrumentation; nil leaves those endpoints
	// answering 501 and the middleware a single nil check. Set by
	// AttachTelemetry before serving.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer

	// drops/recorder back GET /v1/health's drop rollup and GET
	// /v1/events; nil leaves /v1/events answering 501. Set by
	// AttachObservability before serving.
	drops    *telemetry.Drops
	recorder *telemetry.Recorder

	// repl, when set, makes the server role-aware: mutating requests
	// on a standby or fenced node are redirected (307 with Location)
	// to the advertised leader, or refused (503 with Retry-After) when
	// no leader is known. Set by AttachReplication before serving.
	repl *replication.Node
	// wedged, when set, lets GET /v1/health surface a wedged journal.
	// Set by AttachJournal before serving.
	wedged Wedger
}

// Wedger reports a permanently-failed (wedged) journal; nil means the
// journal is healthy. *journal.Store implements it.
type Wedger interface {
	Wedged() error
}

// NewServer wraps a controller.
func NewServer(ctl *controller.Controller) *Server {
	return NewServerWithSimulator(ctl, nil)
}

// NewServerWithSimulator additionally attaches an embedded dataplane
// emulation that follows the controller's state, and POST /v1/inject
// drives test traffic through its modules.
func NewServerWithSimulator(ctl *controller.Controller, sim *Simulator) *Server {
	s := &Server{ctl: ctl, sim: sim, mux: http.NewServeMux(), deployTimeout: DefaultDeployTimeout}
	if sim != nil {
		sim.attach(ctl)
	}
	s.mux.HandleFunc("/v1/modules", s.modules)
	s.mux.HandleFunc("/v1/modules/", s.moduleByID)
	s.mux.HandleFunc("/v1/classes", s.classes)
	s.mux.HandleFunc("/v1/query", s.query)
	s.mux.HandleFunc("/v1/inject", s.inject)
	s.mux.HandleFunc("/v1/health", s.health)
	s.mux.HandleFunc("/v1/metrics", s.metrics)
	s.mux.HandleFunc("/v1/traces", s.traces)
	s.mux.HandleFunc("/v1/pathtrace", s.pathtrace)
	s.mux.HandleFunc("/v1/events", s.events)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// AttachTelemetry wires a metrics registry and trace ring into the
// server: GET /v1/metrics serves the registry's Prometheus text, GET
// /v1/traces the ring's recent admission traces, and every endpoint
// gains request counters and latency histograms. Either argument may
// be nil. Call before serving requests.
func (s *Server) AttachTelemetry(r *telemetry.Registry, tr *telemetry.Tracer) {
	s.reg = r
	s.tracer = tr
}

// AttachObservability wires the unified drop-attribution hub and the
// flight recorder into the server: GET /v1/health gains the
// drop_reasons rollup and GET /v1/events serves the recorder's recent
// events. Either argument may be nil. Call before serving.
func (s *Server) AttachObservability(d *telemetry.Drops, rec *telemetry.Recorder) {
	s.drops = d
	s.recorder = rec
}

// SetDeployTimeout overrides the per-request admission deadline. Zero
// or negative disables the bound.
func (s *Server) SetDeployTimeout(d time.Duration) {
	s.deployTimeout = d
}

// AttachReplication makes the server role-aware: GET /v1/health
// advertises the node's replication role, and mutating endpoints on a
// non-leader answer 307 (leader known) or 503 + Retry-After (leader
// unknown) instead of diverging history. Call before serving.
func (s *Server) AttachReplication(n *replication.Node) {
	s.repl = n
}

// AttachJournal lets GET /v1/health surface a wedged journal in its
// Errors list. Call before serving.
func (s *Server) AttachJournal(w Wedger) {
	s.wedged = w
}

// notLeader intercepts a mutating request on a node that cannot
// currently append: a standby or fenced leader redirects the client
// to the advertised leader with 307 (the method and body must be
// replayed verbatim, which 307 mandates), or refuses with 503 and
// Retry-After when no leader is known yet (mid-election). Reports
// true when the request was answered.
func (s *Server) notLeader(w http.ResponseWriter, r *http.Request) bool {
	if s.repl == nil {
		return false
	}
	info := s.repl.Info()
	if info.Role == controller.RoleLeader.String() && !info.Fenced {
		return false
	}
	if info.LeaderURL != "" {
		w.Header().Set("Location", strings.TrimRight(info.LeaderURL, "/")+r.URL.RequestURI())
		writeErr(w, http.StatusTemporaryRedirect,
			fmt.Errorf("not the leader (role %s, term %d); leader is %s", info.Role, info.Term, info.LeaderURL))
		return true
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable,
		fmt.Errorf("not the leader (role %s, term %d) and no leader is known yet; retry shortly", info.Role, info.Term))
	return true
}

// ServeHTTP implements http.Handler. With telemetry attached it also
// records one request counter sample (endpoint, method, status) and
// one latency sample (endpoint) per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	ep := normalizeEndpoint(r.URL.Path)
	s.reg.Counter("innet_api_requests_total",
		"API requests by endpoint, method and status code.",
		"endpoint", ep, "method", r.Method, "code", strconv.Itoa(rec.code)).Inc()
	s.reg.Histogram("innet_api_request_seconds",
		"API request latency by endpoint.", nil,
		"endpoint", ep).Observe(time.Since(start).Seconds())
}

// statusRecorder captures the response status for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// normalizeEndpoint collapses parameterized paths so the endpoint
// label stays low-cardinality no matter what clients request.
func normalizeEndpoint(path string) string {
	if strings.HasPrefix(path, "/v1/modules/") {
		return "/v1/modules/{id}"
	}
	switch path {
	case "/v1/modules", "/v1/classes", "/v1/query", "/v1/inject",
		"/v1/health", "/v1/metrics", "/v1/traces", "/v1/pathtrace",
		"/v1/events", "/healthz":
		return path
	}
	return "other"
}

// PrometheusContentType is the exposition content type served by
// GET /v1/metrics (Prometheus text format v0.0.4).
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if s.reg == nil {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("telemetry is not enabled on this server"))
		return
	}
	w.Header().Set("Content-Type", PrometheusContentType)
	_ = s.reg.WritePrometheus(w)
}

// DefaultTraceFetch is how many traces GET /v1/traces returns when
// the n query parameter is absent.
const DefaultTraceFetch = 32

func (s *Server) traces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if s.tracer == nil {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("tracing is not enabled on this server"))
		return
	}
	n, ok := fetchN(w, r)
	if !ok {
		return
	}
	out := s.tracer.Recent(n)
	if out == nil {
		out = []telemetry.Trace{}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: out})
}

// fetchN parses the shared n query parameter (how many entries to
// return; 0 = all retained) with DefaultTraceFetch as the absent
// default. Reports false after writing the 400 itself.
func fetchN(w http.ResponseWriter, r *http.Request) (int, bool) {
	n := DefaultTraceFetch
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad n %q (want a non-negative integer; 0 = all)", q))
			return 0, false
		}
		n = v
	}
	return n, true
}

func (s *Server) pathtrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if s.sim == nil {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("path tracing needs the embedded dataplane (start innetd with -simulate)"))
		return
	}
	module := r.URL.Query().Get("module")
	if module == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing module query parameter"))
		return
	}
	n, ok := fetchN(w, r)
	if !ok {
		return
	}
	// Resolve by deployment ID first, then by module name — both are
	// unique, and operators hold whichever the deploy response gave
	// them.
	dep, found := s.ctl.Get(module)
	if !found {
		for _, d := range s.ctl.Deployments() {
			if d.ModuleName == module {
				dep, found = d, true
				break
			}
		}
	}
	if !found {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no deployment %q", module))
		return
	}
	traces := s.sim.PathTraces(dep.Platform, dep.Addr, n)
	if traces == nil {
		traces = []telemetry.PathTrace{}
	}
	writeJSON(w, http.StatusOK, PathTracesResponse{
		Module: dep.ModuleName,
		Addr:   packet.IPString(dep.Addr),
		Traces: traces,
	})
}

func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if s.recorder == nil {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("the flight recorder is not enabled on this server"))
		return
	}
	n, ok := fetchN(w, r)
	if !ok {
		return
	}
	out := s.recorder.Recent(n)
	if out == nil {
		out = []telemetry.Event{}
	}
	writeJSON(w, http.StatusOK, EventsResponse{Events: out})
}

// decodeBody reads a size-capped JSON body into v, writing the error
// response (413 for oversized bodies, 400 otherwise) itself. Returns
// false when the handler should stop.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
		return false
	}
	writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err))
	return false
}

func (s *Server) modules(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		var out []ModuleInfo
		for _, d := range s.ctl.Deployments() {
			out = append(out, moduleInfo(d))
		}
		if out == nil {
			out = []ModuleInfo{}
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		if s.notLeader(w, r) {
			return
		}
		var req DeployRequest
		if !decodeBody(w, r, &req) {
			return
		}
		trust, err := ParseTrust(req.Trust)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		dep, reused, err := s.deployBounded(controller.Request{
			Tenant:       req.Tenant,
			ModuleName:   req.ModuleName,
			Config:       req.Config,
			Stock:        req.Stock,
			Requirements: req.Requirements,
			Trust:        trust,
			Whitelist:    req.Whitelist,
			Transparent:  req.Transparent,
			TraceEvery:   req.TraceEvery,
		})
		if err != nil {
			status := http.StatusInternalServerError
			if _, ok := err.(*controller.RejectionError); ok {
				status = http.StatusUnprocessableEntity
			} else if errors.Is(err, errDeployTimeout) {
				status = http.StatusServiceUnavailable
			} else if errors.Is(err, controller.ErrNotLeader) {
				// Role changed between the gate and the admission;
				// have the client re-resolve the leader.
				status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
			}
			writeErr(w, status, err)
			return
		}
		if s.sim != nil {
			// Undo a placement the simulated dataplane cannot host.
			if err := s.sim.Err(dep.ID); err != nil {
				_ = s.ctl.Kill(dep.ID)
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
		}
		// A reused deployment (idempotent replay of a request the
		// controller already admitted, e.g. a client retrying across a
		// failover) answers 200 instead of 201.
		status := http.StatusCreated
		if reused {
			status = http.StatusOK
		}
		writeJSON(w, status, DeployResponse{
			ID:        dep.ID,
			Platform:  dep.Platform,
			Addr:      packet.IPString(dep.Addr),
			Sandboxed: dep.Sandboxed,
			CompileMS: float64(dep.Timings.Compile.Microseconds()) / 1000,
			CheckMS:   float64(dep.Timings.Check.Microseconds()) / 1000,
		})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

var errDeployTimeout = errors.New("admission timed out; the request was abandoned and any late placement is rolled back")

// deployBounded runs one admission under the server's deploy
// timeout. On timeout the worker keeps running (controller calls are
// not interruptible) but its outcome is discarded: a late successful
// placement is killed so the 503 the client saw stays true.
// Admissions are idempotent: a byte-identical retry of a request the
// controller already holds returns the existing deployment (reused =
// true) so clients replaying through a failover don't double-place.
func (s *Server) deployBounded(req controller.Request) (*controller.Deployment, bool, error) {
	if s.deployTimeout <= 0 && s.testSlowDeploy == nil {
		return s.ctl.DeployIdempotent(req)
	}
	type result struct {
		dep    *controller.Deployment
		reused bool
		err    error
	}
	ch := make(chan result, 1)
	go func() {
		if s.testSlowDeploy != nil {
			s.testSlowDeploy()
		}
		dep, reused, err := s.ctl.DeployIdempotent(req)
		ch <- result{dep, reused, err}
	}()
	timeout := s.deployTimeout
	if timeout <= 0 {
		timeout = DefaultDeployTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.dep, res.reused, res.err
	case <-timer.C:
		go func() {
			res := <-ch
			if res.err == nil && res.dep != nil && !res.reused {
				s.rollbackLatePlacement(res.dep.ID)
			}
			if s.testRollbackDone != nil {
				s.testRollbackDone()
			}
		}()
		return nil, false, fmt.Errorf("deploy exceeded %v: %w", timeout, errDeployTimeout)
	}
}

// rollbackLatePlacement kills a deployment that was placed after its
// client already received the 503 promising rollback. Kill is strict
// write-ahead journaled, so it can fail (e.g. journal disk full); in
// that case the zombie deployment must not stay live silently — the
// failure is retried, logged, and surfaced through GET /v1/health.
func (s *Server) rollbackLatePlacement(id string) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if _, ok := s.ctl.Get(id); !ok {
			return // already gone
		}
		if err := s.ctl.Kill(id); err == nil {
			return
		} else {
			lastErr = err
		}
	}
	log.Printf("api: deploy-timeout rollback: kill %s failed: %v", id, lastErr)
	s.mu.Lock()
	if s.rollbackErr == nil {
		s.rollbackErr = fmt.Errorf("deploy-timeout rollback failed, deployment %s is still live: %v", id, lastErr)
	}
	s.mu.Unlock()
}

func (s *Server) moduleByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/modules/")
	if id == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing module id"))
		return
	}
	switch r.Method {
	case http.MethodDelete:
		if s.notLeader(w, r) {
			return
		}
		if err := s.ctl.Kill(id); err != nil {
			if errors.Is(err, controller.ErrNotLeader) {
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusServiceUnavailable, err)
				return
			}
			writeErr(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		d, ok := s.ctl.Get(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no deployment %q", id))
			return
		}
		writeJSON(w, http.StatusOK, moduleInfo(d))
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func moduleInfo(d *controller.Deployment) ModuleInfo {
	return ModuleInfo{
		ID:         d.ID,
		Tenant:     d.Tenant,
		ModuleName: d.ModuleName,
		Platform:   d.Platform,
		Addr:       packet.IPString(d.Addr),
		Sandboxed:  d.Sandboxed,
		Status:     d.Status().String(),
	}
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	resp := HealthResponse{
		Status:      "ok",
		Platforms:   s.ctl.PlatformHealth(),
		Deployments: map[string]int{},
	}
	for _, up := range resp.Platforms {
		if !up {
			resp.Status = "degraded"
		}
	}
	for _, d := range s.ctl.Deployments() {
		st := d.Status()
		resp.Deployments[st.String()]++
		if st != controller.StatusActive {
			resp.Status = "degraded"
		}
	}
	cs := s.ctl.CacheStats()
	resp.Cache = &CacheInfo{
		Hits:          cs.Hits,
		Misses:        cs.Misses,
		Evictions:     cs.Evictions,
		Invalidations: cs.Invalidations,
		Entries:       cs.Entries,
	}
	if s.sim != nil {
		resp.Drops = s.sim.Drops()
	}
	if s.drops != nil {
		resp.DropReasons = s.drops.Snapshot()
	}
	if err := s.ctl.JournalErr(); err != nil {
		resp.Errors = append(resp.Errors, "journal: "+err.Error())
	}
	if s.wedged != nil {
		if err := s.wedged.Wedged(); err != nil {
			resp.Errors = append(resp.Errors, "journal wedged: "+err.Error())
		}
	}
	if s.repl != nil {
		info := s.repl.Info()
		resp.Replication = &info
		if info.Fenced {
			resp.Errors = append(resp.Errors, fmt.Sprintf(
				"replication: deposed leader (term %d), node is fenced read-only; writes go to %s", info.Term, info.LeaderURL))
		}
	}
	s.mu.Lock()
	if s.rollbackErr != nil {
		resp.Errors = append(resp.Errors, s.rollbackErr.Error())
	}
	s.mu.Unlock()
	if len(resp.Errors) > 0 {
		resp.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) classes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, click.Classes())
}

func (s *Server) inject(w http.ResponseWriter, r *http.Request) {
	if s.sim == nil {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("simulation mode is off (start innetd with -simulate)"))
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var req InjectRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.sim.Inject(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.ctl.Query(req.Requirements)
	if err != nil {
		status := http.StatusInternalServerError
		if _, ok := err.(*controller.RejectionError); ok {
			status = http.StatusBadRequest
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Satisfied: res.Satisfied,
		Reason:    res.Reason,
		CompileMS: float64(res.Timings.Compile.Microseconds()) / 1000,
		CheckMS:   float64(res.Timings.Check.Microseconds()) / 1000,
	})
}

// TrustName maps a security class to its wire name.
func TrustName(t security.TrustClass) string {
	switch t {
	case security.Client:
		return "client"
	case security.Operator:
		return "operator"
	default:
		return "third-party"
	}
}

// ParseTrust maps wire trust names to security classes. An empty
// string defaults to third-party (least privilege).
func ParseTrust(s string) (security.TrustClass, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "third-party", "thirdparty":
		return security.ThirdParty, nil
	case "client":
		return security.Client, nil
	case "operator":
		return security.Operator, nil
	default:
		return 0, fmt.Errorf("unknown trust class %q", s)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
