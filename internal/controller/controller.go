// Package controller implements the In-Net controller (paper §4.3):
// it receives client requests (a Click configuration or a stock
// module, plus requirements), statically verifies them against the
// operator's topology, policy and the security rules, picks a
// platform, assigns the module an address, and — when static checking
// cannot prove safety — transparently wraps the module in a
// ChangeEnforcer sandbox.
package controller

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/pipeline"
	"github.com/in-net/innet/internal/platform"
	"github.com/in-net/innet/internal/policy"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/topology"
)

// Request is a client's processing-module deployment request
// (paper §4.1, Fig. 4): a configuration plus requirements.
type Request struct {
	// Tenant identifies the requesting customer.
	Tenant string
	// ModuleName is the client-chosen module name; requirements
	// reference elements as "<ModuleName>:<element>:<port>".
	ModuleName string
	// Config is Click source. Empty if Stock is set.
	Config string
	// Stock names a platform-provided stock module (§4.1): one of
	// StockModules. Empty if Config is set.
	Stock string
	// Requirements is reach-statement text (may be empty).
	Requirements string
	// Trust is the requester's class.
	Trust security.TrustClass
	// Whitelist lists destination addresses the tenant owns
	// (explicit authorization, §2.1).
	Whitelist []string
	// Transparent requests interposition on traffic not addressed to
	// the module; operator-only.
	Transparent bool
	// TraceEvery is the module's path-trace sampling rate (one flow in
	// N); 0 inherits the platform default, negative disables tracing
	// for this module.
	TraceEvery int
}

// Stock module catalog (§4.1: "a reverse-HTTP proxy appliance, an
// explicit proxy, a DNS server that uses geolocation, and an
// arbitrary x86 VM").
const (
	StockReverseProxy  = "reverse-proxy"
	StockExplicitProxy = "explicit-proxy"
	StockGeoDNS        = "geo-dns"
	StockX86VM         = "x86-vm"
)

// StockModules maps stock module names to their Click sources; the
// x86 VM maps to the empty string (opaque to analysis).
var StockModules = map[string]string{
	StockReverseProxy: `
in :: FromNetfront();
f :: IPFilter(allow tcp dst port 80);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`,
	StockExplicitProxy: `
in :: FromNetfront();
f :: IPFilter(allow tcp);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`,
	StockGeoDNS: `
in :: FromNetfront();
f :: IPFilter(allow udp dst port 53);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`,
	StockX86VM: "",
}

// Timings breaks down the controller's handling latency, mirroring
// the split reported in §6.1 (compilation vs. analysis).
type Timings struct {
	// Compile covers parsing and building the network snapshots.
	Compile time.Duration
	// Check covers symbolic execution (requirements, policy,
	// security).
	Check time.Duration
}

// DeploymentStatus is a deployment's lifecycle state (§4.3: the
// operator "must handle failures" of platforms and modules).
type DeploymentStatus int32

// Deployment lifecycle states.
const (
	// StatusActive: placed, verified, serving.
	StatusActive DeploymentStatus = iota
	// StatusDegraded: the hosting platform is down; traffic is being
	// dropped or buffered while the controller arranges failover.
	StatusDegraded
	// StatusMigrating: failover in progress — the module is being
	// re-verified and re-placed on an alternate platform.
	StatusMigrating
	// StatusFailed: no alternate platform passed the policy and
	// security checks; the module is out of service.
	StatusFailed
)

func (s DeploymentStatus) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusDegraded:
		return "degraded"
	case StatusMigrating:
		return "migrating"
	case StatusFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Deployment is a successfully placed processing module.
type Deployment struct {
	ID         string
	Tenant     string
	ModuleName string
	Platform   string
	// Addr is the address clients use to reach the module.
	Addr uint32
	// Sandboxed reports whether a ChangeEnforcer was injected.
	Sandboxed bool
	// Security is the security-check report.
	Security *security.Report
	// Config is the (possibly sandbox-wrapped) deployed source.
	Config string
	// Timings is the handling-latency breakdown.
	Timings Timings
	// PipelineCompiled reports whether the deployed config flattens
	// into the compiled run-to-completion dataplane; when it does not,
	// PipelineFallback carries the compiler's reason and the platform
	// serves the module on the graph walk.
	PipelineCompiled bool
	PipelineFallback string

	// status is atomic so HTTP handlers may read it while a failover
	// mutates it. All other fields are immutable after placement:
	// failover replaces the map entry with a fresh Deployment under
	// the same ID rather than mutating this one.
	status atomic.Int32
	// req is the original request, retained so failover can re-run
	// the full verification pipeline on an alternate platform.
	req    Request
	module topology.HostedModule
}

// Status returns the deployment's lifecycle state.
func (d *Deployment) Status() DeploymentStatus {
	return DeploymentStatus(d.status.Load())
}

func (d *Deployment) setStatus(s DeploymentStatus) { d.status.Store(int32(s)) }

// statefulClasses lists element classes that hold cross-packet state:
// the platform must not consolidate such modules and uses
// suspend/resume instead of destroy/boot for them (§5).
var statefulClasses = map[string]bool{
	"StatefulFirewall": true,
	"IPRewriter":       true,
	"FlowMeter":        true,
	"Queue":            true,
	"TimedUnqueue":     true,
	"RatedUnqueue":     true,
	"ChangeEnforcer":   true,
}

// Stateful reports whether the deployed configuration holds
// cross-packet state.
func (d *Deployment) Stateful() bool {
	cfg, err := clicklang.Parse(d.Config)
	if err != nil {
		return true // be conservative
	}
	for _, decl := range cfg.Decls {
		if statefulClasses[decl.Class] {
			return true
		}
	}
	return false
}

// classifyPipeline records whether the deployed source compiles into
// the flattened pipeline, and if not, why (the admission-time
// equivalent of the platform's lazy compile, so operators see the
// dataplane mode before the first packet).
func (d *Deployment) classifyPipeline() {
	if err := pipeline.Check(d.Config); err != nil {
		d.PipelineCompiled = false
		d.PipelineFallback = err.Error()
		return
	}
	d.PipelineCompiled = true
	d.PipelineFallback = ""
}

// Dataplane names the dataplane mode this deployment runs on.
func (d *Deployment) Dataplane() string {
	if d.PipelineCompiled {
		return "pipeline"
	}
	return "graph-walk"
}

// PlatformSpec converts the deployment into the module spec the
// hosting platform registers — the integration point between the
// control plane and the (simulated) dataplane.
func (d *Deployment) PlatformSpec() platform.ModuleSpec {
	return platform.ModuleSpec{
		Addr:       d.Addr,
		Config:     d.Config,
		Kind:       platform.ClickOS,
		Stateful:   d.Stateful(),
		TraceEvery: d.req.TraceEvery,
	}
}

// Admission-budget defaults: a pathological tenant configuration must
// not wedge Deploy, so both the symbolic step count and the wall
// clock are bounded and exhaustion is a *RejectionError*, not a hang.
const (
	// DefaultAdmissionSteps bounds symbolic-execution steps per
	// individual check (security analysis; each requirement/policy
	// check) during admission.
	DefaultAdmissionSteps = 500_000
	// DefaultAdmissionTimeout bounds one placement attempt's total
	// wall-clock time across all platforms.
	DefaultAdmissionTimeout = 30 * time.Second
)

// Options are operator-wide policy knobs.
type Options struct {
	// BanConnectionlessReplies enables the §7 amplification-attack
	// mitigation: third-party modules whose reply-to-sender traffic
	// can be connectionless are sandboxed instead of trusted.
	BanConnectionlessReplies bool
	// AdmissionSteps bounds symbolic-execution steps per admission
	// check (0 = DefaultAdmissionSteps, negative = unlimited).
	AdmissionSteps int
	// AdmissionTimeout bounds one placement attempt's wall-clock
	// time (0 = DefaultAdmissionTimeout, negative = unlimited).
	AdmissionTimeout time.Duration
	// AdmissionCache bounds the admission verdict cache (entries; 0 =
	// DefaultAdmissionCache, negative = caching disabled). See
	// cache.go for the key discipline.
	AdmissionCache int
	// AdmissionWorkers fans symbolic path exploration across a
	// bounded work-stealing pool (0 = GOMAXPROCS, negative = 1).
	// Result merging is deterministic, so reports are byte-identical
	// to sequential runs at any worker count (the parallel
	// differential battery enforces this).
	AdmissionWorkers int
	// ElementMemo bounds the per-element symbolic-execution memo
	// (entries; 0 = symexec.DefaultMemoEntries, negative = disabled).
	// Structurally shared sub-chains across tenants verify once.
	ElementMemo int
	// WholesaleInvalidation reverts placement/query cache entries to
	// the legacy epoch-tagged discipline where ANY topology mutation
	// (deploy, kill, outage) invalidates every placement-dependent
	// entry. Default (false) is epoch-delta invalidation: entries
	// record which platforms/modules the check depended on and
	// survive unrelated mutations. Kept for the incremental
	// equivalence property test and benchmark comparisons.
	WholesaleInvalidation bool
}

// workers resolves AdmissionWorkers to an effective pool size.
func (o Options) workers() int {
	if o.AdmissionWorkers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.AdmissionWorkers < 0 {
		return 1
	}
	return o.AdmissionWorkers
}

// admissionBudget resolves the options into a per-check step budget
// and an absolute deadline for a placement attempt starting now.
func (o Options) admissionBudget() (steps int, deadline time.Time) {
	steps = o.AdmissionSteps
	if steps == 0 {
		steps = DefaultAdmissionSteps
	}
	if steps < 0 {
		steps = 0 // symexec default only
	}
	d := o.AdmissionTimeout
	if d == 0 {
		d = DefaultAdmissionTimeout
	}
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	return steps, deadline
}

// Controller is the operator's control plane.
type Controller struct {
	mu   sync.Mutex
	opts Options
	topo *topology.Topology
	// operatorPolicy must hold before and after every placement.
	operatorPolicy []*policy.Requirement
	deployments    map[string]*Deployment
	nextID         int
	// platformDown tracks platform health; down platforms are skipped
	// by placement and trigger failover of their modules.
	platformDown map[string]bool
	// journal receives one record per state transition (nil = no
	// persistence); journalErr remembers the first best-effort
	// append that failed.
	journal    Journal
	journalErr error
	// role is the replication role; RoleStandby rejects mutations
	// with ErrNotLeader (see replication.go).
	role Role
	// cache memoizes symbolic-execution verdicts (nil = disabled);
	// epoch content-addresses the deployment set + platform health
	// for placement-dependent entries, recomputed when epochDirty.
	cache      *symexec.Cache
	epoch      string
	epochDirty bool
	// memo short-circuits repeated per-element symbolic executions
	// across admissions (nil = disabled); digests is the dependency
	// token table for epoch-delta invalidation, recomputed when
	// digestsDirty (see cache.go).
	memo         *symexec.Memo
	digests      map[string]string
	digestsDirty bool
	// tracer/tel are the attached telemetry sinks (nil = dark); span
	// is the open admission span — admissions are serialized under mu,
	// so at most one span is live at a time (see telemetry.go).
	tracer *telemetry.Tracer
	tel    *admissionTelemetry
	span   *telemetry.Span
	// rec, when set, receives flight-recorder events for platform
	// health flips, failovers and cache invalidations.
	rec *telemetry.Recorder

	// Placed, Rejections count controller decisions.
	Placed     int
	Rejections int
	// Migrations and FailedMigrations count failover outcomes.
	Migrations       int
	FailedMigrations int
}

// New builds a controller for the given operator topology and policy
// (reach statements that must always hold; may be empty).
func New(topo *topology.Topology, operatorPolicy string) (*Controller, error) {
	return NewWithOptions(topo, operatorPolicy, Options{})
}

// NewWithOptions builds a controller with operator policy knobs.
func NewWithOptions(topo *topology.Topology, operatorPolicy string, opts Options) (*Controller, error) {
	cacheSize := opts.AdmissionCache
	if cacheSize == 0 {
		cacheSize = DefaultAdmissionCache
	}
	memoSize := opts.ElementMemo
	if memoSize == 0 {
		memoSize = symexec.DefaultMemoEntries
	}
	c := &Controller{
		opts:         opts,
		topo:         topo,
		deployments:  make(map[string]*Deployment),
		platformDown: make(map[string]bool),
		cache:        symexec.NewCache(cacheSize), // nil (disabled) when cacheSize < 0
		memo:         symexec.NewMemo(memoSize),   // nil (disabled) when memoSize < 0
		epochDirty:   true,
		digestsDirty: true,
	}
	if strings.TrimSpace(operatorPolicy) != "" {
		reqs, err := policy.ParseAll(operatorPolicy)
		if err != nil {
			return nil, fmt.Errorf("controller: operator policy: %v", err)
		}
		c.operatorPolicy = reqs
	}
	// The policy must hold on the pristine network.
	net, nm, err := topo.Compile(c.hostedLocked(nil))
	if err != nil {
		return nil, fmt.Errorf("controller: %v", err)
	}
	env := &policy.CheckEnv{Net: net, Map: nm, ClientNet: topo.ClientNet,
		Workers: opts.workers(), Memo: c.memo}
	for _, r := range c.operatorPolicy {
		res, err := r.Check(env)
		if err != nil {
			return nil, fmt.Errorf("controller: operator policy %q: %v", r, err)
		}
		if !res.Satisfied {
			return nil, fmt.Errorf("controller: operator policy %q does not hold on the base network: %s", r, res.Reason)
		}
	}
	return c, nil
}

// RejectionError explains why a request was not deployed.
type RejectionError struct {
	Reason string
}

func (e *RejectionError) Error() string { return "controller: request rejected: " + e.Reason }

// Deploy handles one client request end to end. On success the module
// is recorded as hosted and its deployment descriptor returned; a
// *RejectionError explains refusals.
func (c *Controller) Deploy(req Request) (*Deployment, error) {
	d, _, err := c.deploy(req, false)
	return d, err
}

// deploy is the shared core of Deploy and DeployIdempotent: when
// idempotent, a request byte-identical to an existing deployment
// returns that deployment (reused=true) instead of a duplicate-module
// rejection.
func (c *Controller) deploy(req Request, idempotent bool) (*Deployment, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.leaderOnlyLocked(); err != nil {
		return nil, false, err
	}

	start := time.Now()
	c.beginSpanLocked("deploy", req.ModuleName)
	defer func() {
		if c.tel != nil {
			c.tel.total.Observe(time.Since(start).Seconds())
		}
	}()

	if req.ModuleName == "" {
		c.verdictLocked(false)
		c.endSpanLocked("rejected")
		return nil, false, &RejectionError{Reason: "missing module name"}
	}
	for _, d := range c.deployments {
		if d.Tenant == req.Tenant && d.ModuleName == req.ModuleName {
			if idempotent && sameRequest(d.req, req) {
				c.endSpanLocked("reused")
				return d, true, nil
			}
			c.verdictLocked(false)
			c.endSpanLocked("rejected")
			return nil, false, &RejectionError{Reason: fmt.Sprintf("module %q already deployed", req.ModuleName)}
		}
	}
	dep, err := c.placeLocked(req)
	if err != nil {
		c.Rejections++
		jstart := time.Now()
		c.journalBestEffortLocked(journal.Record{
			Type: journal.EvReject, ID: req.ModuleName, Reason: err.Error(),
		})
		c.stageLocked(StageJournalAppend, jstart, "reject record")
		c.verdictLocked(false)
		c.endSpanLocked("rejected")
		return nil, false, err
	}
	c.span.SetRef(dep.ID)
	// Write-ahead: the admission is durable (and, under replication,
	// acknowledged by the standbys) before it is visible.
	jstart := time.Now()
	jerr := c.appendSyncLocked(journal.Record{Type: journal.EvAdmit, Dep: depRecord(dep)})
	c.stageLocked(StageJournalAppend, jstart, "admit record")
	if jerr != nil {
		c.endSpanLocked("error")
		return nil, false, fmt.Errorf("controller: journal admit: %w", jerr)
	}
	c.deployments[dep.ID] = dep
	c.bumpEpochLocked()
	c.Placed++
	c.verdictLocked(true)
	c.endSpanLocked("admitted")
	return dep, false, nil
}

// placeLocked runs the full verification-and-placement pipeline for a
// request over every healthy platform, returning the placement
// without inserting it into the deployment set. It is the shared core
// of Deploy and Failover.
func (c *Controller) placeLocked(req Request) (*Deployment, error) {
	canonStart := time.Now()
	src, isVM, err := resolveConfig(req)
	if err != nil {
		return nil, err
	}
	var whitelist []uint32
	for _, w := range req.Whitelist {
		ip, err := packet.ParseIP(w)
		if err != nil {
			return nil, &RejectionError{Reason: fmt.Sprintf("bad whitelist address %q", w)}
		}
		whitelist = append(whitelist, ip)
	}
	var reqs []*policy.Requirement
	if strings.TrimSpace(req.Requirements) != "" {
		reqs, err = policy.ParseAll(req.Requirements)
		if err != nil {
			return nil, &RejectionError{Reason: fmt.Sprintf("bad requirements: %v", err)}
		}
	}
	c.stageLocked(StageCanonicalize, canonStart, "")

	var timings Timings
	// Iterate over the platforms (§4.3: "it iterates through all its
	// available platforms, pretends it has instantiated the client
	// processing, checking all operator and client requirements").
	// The whole attempt shares one admission deadline so a config
	// that is slow to analyze cannot multiply its cost per platform.
	steps, deadline := c.opts.admissionBudget()
	var lastReason string
	for _, pl := range c.topo.Platforms() {
		if c.platformDown[pl] {
			lastReason = fmt.Sprintf("platform %s is down", pl)
			continue
		}
		dep, reason, err := c.tryPlatform(req, src, isVM, whitelist, reqs, pl, &timings, steps, deadline)
		if err != nil {
			return nil, err
		}
		if dep != nil {
			dep.Timings = timings
			return dep, nil
		}
		lastReason = reason
	}
	if lastReason == "" {
		lastReason = "no platform available"
	}
	return nil, &RejectionError{Reason: lastReason}
}

// budgetRejection converts a symexec budget exhaustion into the
// client-visible rejection the admission pipeline must produce
// instead of hanging; other errors pass through unchanged.
func budgetRejection(err error) error {
	if errors.Is(err, symexec.ErrBudget) {
		return &RejectionError{Reason: fmt.Sprintf("admission budget exceeded (configuration too expensive to verify): %v", err)}
	}
	return err
}

// tryPlatform attempts a tentative placement on one platform.
// It returns (nil, reason, nil) when this platform does not fit.
func (c *Controller) tryPlatform(req Request, src string, isVM bool, whitelist []uint32, reqs []*policy.Requirement, platformName string, timings *Timings, steps int, deadline time.Time) (*Deployment, string, error) {
	addr, ok := c.allocAddrLocked(platformName)
	if !ok {
		return nil, fmt.Sprintf("platform %s address pool exhausted", platformName), nil
	}
	// The module's address is only known now: substitute the
	// $MODULE_IP placeholder so configurations can refer to their own
	// assigned address (e.g. a tunnel's SNAT stage).
	src = strings.ReplaceAll(src, "$MODULE_IP", packet.IPString(addr))

	// Security check first: its verdict (sandbox) can change the
	// deployed configuration.
	checkStart := time.Now()
	var mod *click.Router
	deploySrc := src
	if !isVM {
		var err error
		mod, err = buildConfig(src)
		if err != nil {
			return nil, "", &RejectionError{Reason: fmt.Sprintf("bad configuration: %v", err)}
		}
	}
	rep, err := c.checkedSecurity(security.Input{
		ModuleID:                 req.ModuleName,
		Module:                   mod,
		Addr:                     addr,
		Trust:                    req.Trust,
		Whitelist:                whitelist,
		Transparent:              req.Transparent,
		BanConnectionlessReplies: c.opts.BanConnectionlessReplies,
		MaxSteps:                 steps,
		Deadline:                 deadline,
		Workers:                  c.opts.workers(),
		Memo:                     c.memo,
	}, src)
	if err != nil {
		return nil, "", budgetRejection(err)
	}
	timings.Check += time.Since(checkStart)
	if rep.Verdict == security.Rejected {
		return nil, "", &RejectionError{Reason: "security: " + strings.Join(rep.Reasons, "; ")}
	}
	sandboxed := rep.Verdict == security.NeedsSandbox
	if sandboxed && !isVM {
		wrapped, err := SandboxConfig(src, whitelist)
		if err != nil {
			return nil, "", &RejectionError{Reason: fmt.Sprintf("cannot sandbox: %v", err)}
		}
		deploySrc = wrapped
	}

	// Build the tentative module (x86 VMs are modeled as an opaque
	// mirror responder wrapped by a separate-VM enforcer).
	compileStart := time.Now()
	buildSrc := deploySrc
	if isVM {
		var err error
		buildSrc, err = SandboxConfig(StockModules[StockReverseProxy], whitelist)
		if err != nil {
			return nil, "", err
		}
		deploySrc = buildSrc
	}
	tentative, err := buildConfig(buildSrc)
	if err != nil {
		return nil, "", &RejectionError{Reason: fmt.Sprintf("bad configuration: %v", err)}
	}
	hosted := topology.HostedModule{
		ID: req.ModuleName, Platform: platformName, Addr: addr, Router: tentative,
	}
	all := c.hostedLocked(&hosted)
	net, nm, err := c.topo.Compile(all)
	if err != nil {
		return nil, fmt.Sprintf("platform %s: %v", platformName, err), nil
	}
	timings.Compile += time.Since(compileStart)
	c.stageLocked(StagePlacement, compileStart, "platform "+platformName)

	// Client requirements and operator policy must all hold.
	checkStart = time.Now()
	env := &policy.CheckEnv{
		Net: net, Map: nm, ClientNet: c.topo.ClientNet,
		MaxSteps: steps, Deadline: deadline,
		Workers: c.opts.workers(), Memo: c.memo,
	}
	var pkey string
	if c.cache != nil {
		pkey = placementKey(platformName, addr, deploySrc, req.Requirements, steps)
	}
	reason, cerr := c.checkPlacementLocked(platformName, reqs, env, pkey)
	timings.Check += time.Since(checkStart)
	if cerr != nil {
		// Budget exhaustion aborts the whole deployment: the config
		// would burn the same budget on every platform.
		return nil, "", budgetRejection(cerr)
	}
	if reason != "" {
		return nil, reason, nil
	}

	c.nextID++
	dep := &Deployment{
		ID:         fmt.Sprintf("pm-%d", c.nextID),
		Tenant:     req.Tenant,
		ModuleName: req.ModuleName,
		Platform:   platformName,
		Addr:       addr,
		Sandboxed:  sandboxed || isVM,
		Security:   rep,
		Config:     deploySrc,
		req:        req,
		module:     hosted,
	}
	dep.classifyPipeline()
	return dep, "", nil
}

// checkPlacementLocked verifies the client requirements and operator
// policy against env, a compiled network snapshot that includes the
// tentative placement on platformName. It is shared by tryPlatform
// and recoverPlaceLocked so every re-placement path — Deploy,
// Failover, RetryFailed and restart recovery — enforces the same
// placement-dependent checks. A non-empty reason means the placement
// does not fit on this platform (the caller moves to the next one);
// an error means the symbolic-execution budget is exhausted, which no
// platform can cure.
//
// key, when non-empty, memoizes the outcome in the admission cache:
// the reason string (including "": fits) is a pure function of the
// compiled snapshot and the requirement texts. In epoch-delta mode
// (the default) the entry records the dependency tokens the checks
// actually touched — the platforms whose module sets the symbolic
// runs visited and the module names the requirements referenced — and
// stays hot across unrelated topology mutations; under
// Options.WholesaleInvalidation it is epoch-tagged instead. The
// tentative module itself needs no token: it is part of the cache key
// (placementKey hashes its deployed source). Budget errors are never
// cached.
func (c *Controller) checkPlacementLocked(platformName string, reqs []*policy.Requirement, env *policy.CheckEnv, key string) (string, error) {
	useCache := c.cache != nil && key != ""
	delta := useCache && !c.opts.WholesaleInvalidation
	if useCache {
		lstart := time.Now()
		var v any
		var ok bool
		if delta {
			cur := c.digestsLocked()
			v, ok = c.cache.GetValidated(key, func(deps map[string]string) bool {
				return depsValid(deps, cur)
			})
		} else {
			v, ok = c.cache.Get(key, c.epochLocked())
		}
		if ok {
			c.stageLocked(StageCacheLookup, lstart, "placement: hit")
			return v.(string), nil
		}
		c.stageLocked(StageCacheLookup, lstart, "placement: miss")
	}
	if delta {
		env.Visited = make(map[string]bool)
		env.RefNames = make(map[string]bool)
	}
	pstart := time.Now()
	reason, err := c.runPlacementChecks(platformName, reqs, env)
	c.stageLocked(StagePolicyCheck, pstart, policyDetail(platformName, reason, err))
	if err != nil {
		return reason, err
	}
	if useCache {
		if delta {
			c.cache.PutDeps(key, c.depsFor(env, c.digestsLocked()), reason)
		} else {
			c.cache.Put(key, c.epochLocked(), reason)
		}
	}
	return reason, nil
}

// runPlacementChecks is the uncached core of checkPlacementLocked.
func (c *Controller) runPlacementChecks(platformName string, reqs []*policy.Requirement, env *policy.CheckEnv) (string, error) {
	for _, r := range reqs {
		res, err := r.Check(env)
		if err != nil {
			if errors.Is(err, symexec.ErrBudget) {
				return "", err
			}
			return fmt.Sprintf("platform %s: requirement %q: %v", platformName, r, err), nil
		}
		if !res.Satisfied {
			return fmt.Sprintf("platform %s: requirement %q: %s", platformName, r, res.Reason), nil
		}
	}
	for _, r := range c.operatorPolicy {
		res, err := r.Check(env)
		if err != nil {
			if errors.Is(err, symexec.ErrBudget) {
				return "", err
			}
			return fmt.Sprintf("platform %s: operator policy %q: %v", platformName, r, err), nil
		}
		if !res.Satisfied {
			return fmt.Sprintf("platform %s: operator policy %q violated: %s", platformName, r, res.Reason), nil
		}
	}
	return "", nil
}

// MarkPlatformDown records a platform outage: placement skips the
// platform and every deployment hosted there turns Degraded. The
// affected deployments are returned (sorted by ID); call Failover to
// migrate them.
func (c *Controller) MarkPlatformDown(name string) []*Deployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaderOnlyLocked() != nil {
		// A standby learns platform health through replicated records.
		return nil
	}
	c.platformDown[name] = true
	c.recordLocked("platform-down", "", name)
	c.bumpEpochLocked()
	// One platform-down record covers the whole sweep: replay folds
	// the same active→degraded transition.
	c.journalBestEffortLocked(journal.Record{Type: journal.EvPlatformDown, Platform: name})
	var affected []*Deployment
	for _, d := range c.deployments {
		if d.Platform == name && d.Status() == StatusActive {
			d.setStatus(StatusDegraded)
			affected = append(affected, d)
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i].ID < affected[j].ID })
	return affected
}

// MarkPlatformUp records a platform recovery: deployments still on it
// (not migrated away) return to Active.
func (c *Controller) MarkPlatformUp(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaderOnlyLocked() != nil {
		return
	}
	delete(c.platformDown, name)
	c.recordLocked("platform-up", "", name)
	c.bumpEpochLocked()
	c.journalBestEffortLocked(journal.Record{Type: journal.EvPlatformUp, Platform: name})
	for _, d := range c.deployments {
		if d.Platform == name && d.Status() == StatusDegraded {
			d.setStatus(StatusActive)
		}
	}
}

// PlatformHealth reports up/down per topology platform.
func (c *Controller) PlatformHealth() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool)
	for _, pl := range c.topo.Platforms() {
		out[pl] = !c.platformDown[pl]
	}
	return out
}

// Migration records one failover: From is the stale placement on the
// dead platform, To the verified replacement (same ID, new platform
// and address).
type Migration struct {
	From, To *Deployment
}

// Failover migrates every degraded deployment off a dead platform.
// Each module is re-placed through the full pipeline — operator
// policy, client requirements and the security rules are re-verified
// on the alternate platform, so failover cannot place a module the
// static checks would have refused (§4.3's obligation to handle
// platform failures without weakening In-Net's guarantees). Modules
// with no passing alternate turn StatusFailed and are reported in
// failed. Deployment IDs are preserved across migration.
func (c *Controller) Failover(name string) (migrated []Migration, failed []*Deployment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaderOnlyLocked() != nil {
		return nil, nil
	}
	ids := make([]string, 0, len(c.deployments))
	for id, d := range c.deployments {
		if d.Platform == name && d.Status() != StatusFailed {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := c.deployments[id]
		d.setStatus(StatusMigrating)
		c.beginSpanLocked("failover", id)
		// Remove the stale copy so the tentative snapshots compiled by
		// placeLocked do not include the unreachable module.
		delete(c.deployments, id)
		c.bumpEpochLocked()
		nd, err := c.placeLocked(d.req)
		if err != nil {
			c.deployments[id] = d
			d.setStatus(StatusFailed)
			c.bumpEpochLocked()
			c.FailedMigrations++
			c.journalBestEffortLocked(journal.Record{Type: journal.EvMigrateFailed, ID: id, Reason: err.Error()})
			c.recordLocked("migration-failed", err.Error(), id)
			c.endSpanLocked("migration-failed")
			failed = append(failed, d)
			continue
		}
		nd.ID = id
		c.deployments[id] = nd
		c.bumpEpochLocked()
		c.Migrations++
		c.journalBestEffortLocked(journal.Record{Type: journal.EvMigrate, Dep: depRecord(nd)})
		c.recordLocked("module-failover", d.Platform+" -> "+nd.Platform, id)
		c.span.SetRef(nd.Platform)
		c.endSpanLocked("migrated")
		migrated = append(migrated, Migration{From: d, To: nd})
	}
	return migrated, failed
}

// RetryFailed re-attempts placement of StatusFailed deployments
// (e.g. after a platform came back). Successfully re-placed modules
// return to Active under their original IDs.
func (c *Controller) RetryFailed() []*Deployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaderOnlyLocked() != nil {
		return nil
	}
	ids := make([]string, 0, len(c.deployments))
	for id, d := range c.deployments {
		if d.Status() == StatusFailed {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var recovered []*Deployment
	for _, id := range ids {
		d := c.deployments[id]
		delete(c.deployments, id)
		c.bumpEpochLocked()
		c.beginSpanLocked("retry", id)
		nd, err := c.placeLocked(d.req)
		if err != nil {
			c.deployments[id] = d
			c.bumpEpochLocked()
			c.endSpanLocked("still-failed")
			continue
		}
		nd.ID = id
		c.deployments[id] = nd
		c.bumpEpochLocked()
		c.Migrations++
		c.journalBestEffortLocked(journal.Record{Type: journal.EvMigrate, Dep: depRecord(nd)})
		c.span.SetRef(nd.Platform)
		c.endSpanLocked("recovered")
		recovered = append(recovered, nd)
	}
	return recovered
}

// QueryResult answers a reachability query.
type QueryResult struct {
	Satisfied bool
	Reason    string
	Timings   Timings
}

// Query checks reachability requirements against the network as it
// currently stands — deployed modules included — without deploying
// anything. This is the probe of the paper's protocol-tunneling use
// case (§8): "the sender could use the In-Net API to send a UDP
// reachability requirement to the network... after which the client
// can make the optimal tunnel choice" instead of waiting out a
// transport timeout.
func (c *Controller) Query(requirements string) (*QueryResult, error) {
	reqs, err := policy.ParseAll(requirements)
	if err != nil {
		return nil, &RejectionError{Reason: fmt.Sprintf("bad requirements: %v", err)}
	}
	// Queries are read-only: snapshot the deployment set under the
	// lock, then compile and check concurrently with other queries —
	// §4.3's observation that "it is fairly easy to parallelize the
	// controller by simply having multiple machines answer the
	// queries" holds within one process too.
	steps, deadline := c.opts.admissionBudget()
	key := queryKey(requirements, steps)
	c.mu.Lock()
	hosted := c.hostedLocked(nil)
	var epoch string
	var cur map[string]string
	if c.deltaEnabled() {
		// digestsLocked builds a fresh map on every recompute and
		// never mutates one in place, so the snapshot reference is
		// safe to read after unlocking.
		cur = c.digestsLocked()
	} else {
		epoch = c.epochLocked()
	}
	c.mu.Unlock()
	// A cached verdict for this requirement text whose dependency
	// tokens (or epoch) still match answers the probe without
	// compiling or exploring anything — the §8 reachability probe
	// becomes a hash lookup under steady traffic.
	if res, ok := c.cachedQuery(key, epoch, cur); ok {
		return res, nil
	}
	out := &QueryResult{Satisfied: true}
	compileStart := time.Now()
	net, nm, err := c.topo.Compile(hosted)
	if err != nil {
		return nil, err
	}
	out.Timings.Compile = time.Since(compileStart)
	env := &policy.CheckEnv{
		Net: net, Map: nm, ClientNet: c.topo.ClientNet,
		MaxSteps: steps, Deadline: deadline,
		Workers: c.opts.workers(), Memo: c.memo,
	}
	if cur != nil {
		env.Visited = make(map[string]bool)
		env.RefNames = make(map[string]bool)
	}
	checkStart := time.Now()
	for _, r := range reqs {
		res, err := r.Check(env)
		if err != nil {
			return nil, budgetRejection(err)
		}
		if !res.Satisfied {
			out.Satisfied = false
			out.Reason = fmt.Sprintf("%q: %s", r, res.Reason)
			break
		}
	}
	out.Timings.Check = time.Since(checkStart)
	c.putQuery(key, epoch, cur, env, out)
	return out, nil
}

// Kill stops a processing module (§4.3: "clients can stop processing
// modules by issuing a kill command with the proper identifier").
func (c *Controller) Kill(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.leaderOnlyLocked(); err != nil {
		return err
	}
	if _, ok := c.deployments[id]; !ok {
		return fmt.Errorf("controller: no deployment %q", id)
	}
	// Write-ahead: a kill that is not durable is not performed, so a
	// recovered controller can never resurrect a killed module.
	if jerr := c.appendSyncLocked(journal.Record{Type: journal.EvKill, ID: id}); jerr != nil {
		return fmt.Errorf("controller: journal kill: %w", jerr)
	}
	delete(c.deployments, id)
	c.bumpEpochLocked()
	return nil
}

// Deployments lists current deployments sorted by ID.
func (c *Controller) Deployments() []*Deployment {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Deployment, 0, len(c.deployments))
	for _, d := range c.deployments {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PipelineStats summarizes the dataplane mode across live
// deployments: how many flatten into the compiled pipeline, how many
// fall back to the graph walk, and the fallback reasons (reason ->
// count).
type PipelineStats struct {
	Compiled int            `json:"compiled"`
	Fallback int            `json:"fallback"`
	Reasons  map[string]int `json:"reasons,omitempty"`
	// Modules maps each live module name to its fallback reason; a
	// compiled module maps to "".
	Modules map[string]string `json:"modules,omitempty"`
}

// PipelineStatsSnapshot computes PipelineStats over the current
// deployment set.
func (c *Controller) PipelineStatsSnapshot() PipelineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var st PipelineStats
	for _, d := range c.deployments {
		if st.Modules == nil {
			st.Modules = make(map[string]string)
		}
		if d.PipelineCompiled {
			st.Compiled++
			st.Modules[d.ModuleName] = ""
			continue
		}
		st.Fallback++
		st.Modules[d.ModuleName] = d.PipelineFallback
		if st.Reasons == nil {
			st.Reasons = make(map[string]int)
		}
		st.Reasons[d.PipelineFallback]++
	}
	return st
}

// Get returns a deployment by ID.
func (c *Controller) Get(id string) (*Deployment, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.deployments[id]
	return d, ok
}

// hostedLocked lists all hosted modules plus an optional tentative
// one. Failed deployments are excluded: their modules are not on the
// network.
func (c *Controller) hostedLocked(extra *topology.HostedModule) []topology.HostedModule {
	var out []topology.HostedModule
	for _, d := range c.deployments {
		if d.Status() == StatusFailed {
			continue
		}
		out = append(out, d.module)
	}
	if extra != nil {
		out = append(out, *extra)
	}
	return out
}

// allocAddrLocked picks the lowest free host address in the
// platform's pool, so addresses freed by Kill are reused.
func (c *Controller) allocAddrLocked(platform string) (uint32, bool) {
	node := c.topo.Node(platform)
	if node == nil {
		return 0, false
	}
	lo, hi := node.Pool.Range()
	used := make(map[uint32]bool)
	for _, d := range c.deployments {
		if d.Platform == platform {
			used[d.Addr] = true
		}
	}
	// lo is the network address, hi the broadcast; both excluded.
	for a := lo + 1; a < hi; a++ {
		if !used[a] {
			return a, true
		}
	}
	return 0, false
}

// resolveConfig picks the Click source for the request.
func resolveConfig(req Request) (src string, isVM bool, err error) {
	switch {
	case req.Config != "" && req.Stock != "":
		return "", false, &RejectionError{Reason: "request has both a configuration and a stock module"}
	case req.Config != "":
		return req.Config, false, nil
	case req.Stock != "":
		src, ok := StockModules[req.Stock]
		if !ok {
			return "", false, &RejectionError{Reason: fmt.Sprintf("unknown stock module %q", req.Stock)}
		}
		return src, src == "", nil
	default:
		return "", false, &RejectionError{Reason: "request has no configuration"}
	}
}

func buildConfig(src string) (*click.Router, error) {
	cfg, err := clicklang.Parse(src)
	if err != nil {
		return nil, err
	}
	return click.Build(cfg)
}

// SandboxConfig wraps a single-interface configuration with a
// ChangeEnforcer (§4.4): the enforcer is injected on the path from
// FromNetfront into the module and on the path from the module to
// ToNetfront, and is configured with the tenant's whitelist. The
// enforcer becomes part of the client configuration — "this has the
// benefit of billing the user for the sandboxing".
func SandboxConfig(src string, whitelist []uint32) (string, error) {
	cfg, err := clicklang.Parse(src)
	if err != nil {
		return "", err
	}
	var fromName, toName string
	for _, d := range cfg.Decls {
		switch d.Class {
		case "FromNetfront", "FromDevice":
			if fromName != "" {
				return "", fmt.Errorf("controller: cannot sandbox a module with multiple ingress elements")
			}
			fromName = d.Name
		case "ToNetfront", "ToDevice":
			if toName != "" {
				return "", fmt.Errorf("controller: cannot sandbox a module with multiple egress elements")
			}
			toName = d.Name
		}
	}
	if fromName == "" || toName == "" {
		return "", fmt.Errorf("controller: module must have FromNetfront and ToNetfront to be sandboxed")
	}
	var wl []string
	for _, ip := range whitelist {
		wl = append(wl, packet.IPString(ip))
	}
	wlArg := ""
	if len(wl) > 0 {
		wlArg = "whitelist " + strings.Join(wl, " ")
	}

	var b strings.Builder
	for _, d := range cfg.Decls {
		fmt.Fprintf(&b, "%s :: %s(%s);\n", d.Name, d.Class, d.RawArgs)
	}
	fmt.Fprintf(&b, "__sandbox :: ChangeEnforcer(%s);\n", wlArg)
	egressWired := false
	for _, cn := range cfg.Conns {
		from, fromPort, to, toPort := cn.From, cn.FromPort, cn.To, cn.ToPort
		if from == fromName {
			// ingress -> enforcer(inbound) -> original target
			fmt.Fprintf(&b, "%s[%d] -> [0]__sandbox;\n", from, fromPort)
			fmt.Fprintf(&b, "__sandbox[0] -> [%d]%s;\n", toPort, to)
			continue
		}
		if to == toName {
			// original source(s) -> enforcer(outbound) -> egress; the
			// egress side is wired once even with fan-in.
			fmt.Fprintf(&b, "%s[%d] -> [1]__sandbox;\n", from, fromPort)
			if !egressWired {
				fmt.Fprintf(&b, "__sandbox[1] -> [%d]%s;\n", toPort, to)
				egressWired = true
			}
			continue
		}
		fmt.Fprintf(&b, "%s[%d] -> [%d]%s;\n", from, fromPort, toPort, to)
	}
	return b.String(), nil
}
