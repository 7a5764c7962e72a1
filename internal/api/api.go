// Package api defines the JSON wire format of the In-Net controller
// daemon (cmd/innetd) and a small client used by cmd/innetctl. The
// paper's §4.3 assumes clients obtain the controller address
// out-of-band and submit processing requests with their credentials;
// this API is that interface.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/in-net/innet/internal/replication"
	"github.com/in-net/innet/internal/telemetry"
)

// DeployRequest is the POST /v1/modules body.
type DeployRequest struct {
	Tenant       string   `json:"tenant"`
	ModuleName   string   `json:"module_name"`
	Config       string   `json:"config,omitempty"`
	Stock        string   `json:"stock,omitempty"`
	Requirements string   `json:"requirements,omitempty"`
	Trust        string   `json:"trust"` // "third-party" | "client" | "operator"
	Whitelist    []string `json:"whitelist,omitempty"`
	Transparent  bool     `json:"transparent,omitempty"`
	// TraceEvery sets this module's per-flow path-trace sampling rate:
	// one flow in every N is traced end to end. 0 inherits the
	// platform default; negative disables tracing for the module.
	TraceEvery int `json:"trace_every,omitempty"`
}

// DeployResponse describes a placed module.
type DeployResponse struct {
	ID        string  `json:"id"`
	Platform  string  `json:"platform"`
	Addr      string  `json:"addr"`
	Sandboxed bool    `json:"sandboxed"`
	CompileMS float64 `json:"compile_ms"`
	CheckMS   float64 `json:"check_ms"`
}

// ModuleInfo is one entry of GET /v1/modules.
type ModuleInfo struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant"`
	ModuleName string `json:"module_name"`
	Platform   string `json:"platform"`
	Addr       string `json:"addr"`
	Sandboxed  bool   `json:"sandboxed"`
	// Status is the deployment lifecycle state: "active",
	// "degraded", "migrating" or "failed".
	Status string `json:"status"`
}

// HealthResponse is the GET /v1/health body.
type HealthResponse struct {
	// Status is "ok" when every platform is healthy and every
	// deployment active, "degraded" otherwise.
	Status string `json:"status"`
	// Platforms maps platform name to health.
	Platforms map[string]bool `json:"platforms"`
	// Deployments counts deployments by lifecycle state.
	Deployments map[string]int `json:"deployments"`
	// Errors lists persistent control-plane faults: a best-effort
	// journal append that failed, or a deploy-timeout rollback whose
	// kill failed (the 503'd deployment is still live). Non-empty
	// forces Status "degraded".
	Errors []string `json:"errors,omitempty"`
	// Drops totals dropped packets per simulated platform (simulate
	// mode only).
	Drops map[string]uint64 `json:"drops,omitempty"`
	// Cache snapshots the admission-cache counters (all zero when
	// caching is disabled).
	Cache *CacheInfo `json:"cache,omitempty"`
	// Replication advertises this node's replication role — clients
	// and peers use it to find the leader after a failover. Absent on
	// an unreplicated (single) controller.
	Replication *replication.Info `json:"replication,omitempty"`
	// DropReasons is the unified drop-attribution rollup: subsystem
	// site → taxonomy reason → total count, mirroring
	// innet_drops_total{site,reason}. Present when the daemon has the
	// drop hub wired.
	DropReasons map[string]map[string]uint64 `json:"drop_reasons,omitempty"`
}

// CacheInfo is the admission-cache slice of GET /v1/health: the
// verdict cache's counters.
type CacheInfo struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
}

// TracesResponse is the GET /v1/traces body.
type TracesResponse struct {
	Traces []telemetry.Trace `json:"traces"`
}

// PathTracesResponse is the GET /v1/pathtrace body: the most recent
// sampled per-flow path traces for one deployed module.
type PathTracesResponse struct {
	// Module is the module name the query resolved.
	Module string `json:"module"`
	// Addr is the module's dataplane address.
	Addr string `json:"addr"`
	// Traces lists sampled traversals, newest first.
	Traces []telemetry.PathTrace `json:"traces"`
}

// EventsResponse is the GET /v1/events body: the flight recorder's
// most recent structured fault/transition events, newest first.
type EventsResponse struct {
	Events []telemetry.Event `json:"events"`
}

// QueryRequest is the POST /v1/query body: reach statements to check
// against the network as it currently stands, without deploying.
type QueryRequest struct {
	Requirements string `json:"requirements"`
}

// QueryResponse answers a reachability query.
type QueryResponse struct {
	Satisfied bool    `json:"satisfied"`
	Reason    string  `json:"reason,omitempty"`
	CompileMS float64 `json:"compile_ms"`
	CheckMS   float64 `json:"check_ms"`
}

// ErrorResponse carries a controller refusal or server error.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Client talks to an innetd instance. Transient failures — transport
// errors and 5xx responses other than 501 — are retried with jittered
// exponential backoff (the server's Retry-After, when present, takes
// precedence over the computed backoff); controller refusals (4xx,
// including 413) and 501 are terminal. A redirect from a deposed
// leader re-aims the client at the advertised successor and is
// retried there.
type Client struct {
	// BaseURL is e.g. "http://127.0.0.1:8640".
	BaseURL string
	// HTTP is the underlying client (default with 30 s timeout).
	HTTP *http.Client
	// Retries is the number of additional attempts after a transient
	// failure (0 disables retrying).
	Retries int
	// RetryBase is the first backoff delay; it doubles per attempt
	// with ±50% jitter.
	RetryBase time.Duration
	// Sleep is stubbed by tests; nil means time.Sleep.
	Sleep func(time.Duration)

	// mu guards leader, the redirect-discovered base URL that
	// overrides BaseURL until the next redirect.
	mu     sync.Mutex
	leader string
}

// NewClient builds a client with sane defaults. Redirects are handled
// by the retry loop (not http.Client) so the leader discovered from a
// 307 sticks for subsequent calls.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP: &http.Client{
			Timeout: 30 * time.Second,
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
		Retries:   3,
		RetryBase: 100 * time.Millisecond,
	}
}

// base is the URL requests go to: the redirect-discovered leader when
// one is known, BaseURL otherwise.
func (c *Client) base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader != "" {
		return c.leader
	}
	return c.BaseURL
}

// Leader returns the leader base URL learned from redirects ("" if
// the client still talks to BaseURL).
func (c *Client) Leader() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leader
}

func (c *Client) setLeader(u string) {
	c.mu.Lock()
	c.leader = u
	c.mu.Unlock()
}

// retryable reports whether a response status indicates a transient
// condition worth retrying: any 5xx except 501 Not Implemented (the
// server will never learn the method) — and never 4xx, in particular
// 413 Payload Too Large (the payload will not shrink by resending).
func retryable(status int) bool {
	return status >= 500 && status != http.StatusNotImplemented
}

// maxRedirects caps how many leader re-aims (307 hops plus
// connection-refused fallbacks to BaseURL) one request will follow.
// Two confused nodes advertising each other as leader would otherwise
// bounce the client forever without ever consuming its retry budget.
const maxRedirects = 5

// redirected reports a response that re-points the client (a deposed
// leader naming its successor).
func redirected(status int) bool {
	switch status {
	case http.StatusMovedPermanently, http.StatusFound,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		return true
	}
	return false
}

// retryAfter parses a Retry-After header (seconds form) into a delay;
// ok is false when absent or unparseable.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// do issues one request, retrying transient failures. body may be nil;
// it is re-sent verbatim on every attempt.
func (c *Client) do(method, path string, body []byte) (*http.Response, error) {
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	backoff := c.RetryBase
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	var lastErr error
	attempt, redirects := 0, 0
	for {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base()+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.HTTP.Do(req)
		// wait < 0 means re-aim and retry immediately (redirect or
		// dead-leader fallback); otherwise the jittered backoff,
		// overridden by an explicit Retry-After.
		wait := time.Duration(0)
		switch {
		case err != nil && errors.Is(err, syscall.ECONNREFUSED) && c.Leader() != "":
			// The sticky redirect-discovered leader is gone (crashed,
			// not merely slow). Fall back to the configured BaseURL,
			// which a surviving node may be serving — or redirecting
			// from — right now.
			c.setLeader("")
			lastErr = fmt.Errorf("api: leader unreachable, falling back to %s: %w", c.BaseURL, err)
			wait = -1
		case err != nil:
			lastErr = err
		case redirected(resp.StatusCode):
			loc := resp.Header.Get("Location")
			resp.Body.Close()
			if u, perr := url.Parse(loc); perr == nil && u.IsAbs() {
				c.setLeader(u.Scheme + "://" + u.Host)
				lastErr = fmt.Errorf("api: redirected to leader %s://%s (HTTP %d)", u.Scheme, u.Host, resp.StatusCode)
				wait = -1
			} else {
				lastErr = fmt.Errorf("api: redirect without usable Location (HTTP %d)", resp.StatusCode)
			}
		case retryable(resp.StatusCode):
			if d, ok := retryAfter(resp); ok {
				wait = d
			}
			lastErr = decodeError(resp)
			resp.Body.Close()
		default:
			return resp, nil
		}
		if wait < 0 {
			// Re-aims ride a separate (capped) budget: they cost no
			// backoff and should not eat into the retry allowance, but
			// a redirect cycle must still terminate.
			redirects++
			if redirects > maxRedirects {
				return nil, fmt.Errorf("api: gave up after %d leader redirects: %w", redirects-1, lastErr)
			}
			continue
		}
		if attempt >= c.Retries {
			plural := "s"
			if attempt == 0 {
				plural = ""
			}
			return nil, fmt.Errorf("after %d attempt%s: %w", attempt+1, plural, lastErr)
		}
		attempt++
		switch {
		case wait > 0:
			// The server named its own delay; jitter ±25% so a herd of
			// redirected clients does not re-arrive in lockstep.
			sleep(wait*3/4 + time.Duration(rand.Int63n(int64(wait/2)+1)))
		default:
			// Jitter the delay by ±50% so retry storms decorrelate.
			sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
			backoff *= 2
		}
	}
}

// call issues a request and decodes the response into out (skipped if
// out is nil). Responses other than wantStatus become errors.
func (c *Client) call(method, path string, in any, wantStatus int, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	resp, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Deploy submits a deployment request. 201 is a fresh admission; 200
// means the server recognized the request as a retry of an admission
// it already holds (idempotent replay after a failover) and returned
// the existing deployment.
func (c *Client) Deploy(req DeployRequest) (*DeployResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(http.MethodPost, "/v1/modules", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out DeployResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query checks reachability without deploying.
func (c *Client) Query(requirements string) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.call(http.MethodPost, "/v1/query", QueryRequest{Requirements: requirements}, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Inject sends test packets through a deployed module (innetd
// -simulate mode only).
func (c *Client) Inject(req InjectRequest) (*InjectResponse, error) {
	var out InjectResponse
	if err := c.call(http.MethodPost, "/v1/inject", req, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Kill stops a deployed module.
func (c *Client) Kill(id string) error {
	return c.call(http.MethodDelete, "/v1/modules/"+id, nil, http.StatusNoContent, nil)
}

// List fetches the current deployments.
func (c *Client) List() ([]ModuleInfo, error) {
	var out []ModuleInfo
	if err := c.call(http.MethodGet, "/v1/modules", nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Classes fetches the element classes the platform offers.
func (c *Client) Classes() ([]string, error) {
	var out []string
	if err := c.call(http.MethodGet, "/v1/classes", nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health fetches controller health: platform liveness and deployment
// lifecycle counts.
func (c *Client) Health() (*HealthResponse, error) {
	var out HealthResponse
	if err := c.call(http.MethodGet, "/v1/health", nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the Prometheus text exposition from /v1/metrics.
func (c *Client) Metrics() (string, error) {
	resp, err := c.do(http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Traces fetches the n most recent admission traces (0 = the whole
// ring; negative uses the server default).
func (c *Client) Traces(n int) ([]telemetry.Trace, error) {
	path := "/v1/traces"
	if n >= 0 {
		path = fmt.Sprintf("%s?n=%d", path, n)
	}
	var out TracesResponse
	if err := c.call(http.MethodGet, path, nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out.Traces, nil
}

// PathTraces fetches the n most recent sampled path traces for a
// deployed module (0 = all retained; negative uses the server
// default).
func (c *Client) PathTraces(module string, n int) (*PathTracesResponse, error) {
	path := "/v1/pathtrace?module=" + url.QueryEscape(module)
	if n >= 0 {
		path = fmt.Sprintf("%s&n=%d", path, n)
	}
	var out PathTracesResponse
	if err := c.call(http.MethodGet, path, nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Events fetches the n most recent flight-recorder events (0 = the
// whole ring; negative uses the server default).
func (c *Client) Events(n int) ([]telemetry.Event, error) {
	path := "/v1/events"
	if n >= 0 {
		path = fmt.Sprintf("%s?n=%d", path, n)
	}
	var out EventsResponse
	if err := c.call(http.MethodGet, path, nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out.Events, nil
}

func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var e ErrorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("api: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("api: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
}
