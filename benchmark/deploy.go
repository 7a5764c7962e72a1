package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/in-net/innet/internal/api"
	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/replication"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/topology"
)

// Deploy-path constants; BENCHMARK.json and the README quote them.
const (
	// deployRatePerS is the phase-A open-loop arrival rate. Frozen on
	// the seed commit at ≤40 % of phase-B capacity on both deploy
	// workloads (see README "Choosing the open-loop rate").
	deployRatePerS = 64
	// deployClients is the number of HTTP connections: one per CPU of
	// the reference host, so the load generator never outnumbers the
	// cores the three replicas and the server share with it.
	deployClients = 2
	// A run is cut into segments of about six seconds: four of phase A
	// (open loop), then two of phase B (closed loop).
	deployPhaseASeconds = 4
	deployPhaseBSeconds = 2
	deployWarmRounds    = 2 // passes over the warm pool (or as many cold requests) before measuring
	// operatorPolicy is the Fig. 3 operator requirement the README and
	// examples/quickstart use: HTTP responses must cross the optimizer.
	operatorPolicy = "reach from internet tcp src port 80 -> HTTPOptimizer -> client"
	benchReqHeader = "X-Bench-Req"
)

// replica is one controller node: journal + controller + replication.
type replica struct {
	dir   string
	store *journal.Store
	ctl   *controller.Controller
	node  *replication.Node
}

// deployStack is the deploy path wired as cmd/innetd wires a 3-node
// quorum group: each node a SyncAlways journal, a controller on the
// Fig. 3 topology with the HTTPOptimizer operator policy, and an
// innet-repl/2 replication node over loopback TCP (no injected delay);
// the leader behind api.NewServer on a loopback listener.
type deployStack struct {
	dir      string
	replicas []*replica
	ln       net.Listener
	srv      *http.Server
	served   chan error
	url      string

	// Seams of the traced run (nil when tracing is off).
	tracer  *telemetry.Tracer
	seam    *journalSeam
	handler *handlerSeam
}

func bootDeployStack(dir string, traced bool) (*deployStack, error) {
	s := &deployStack{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.url = "http://" + s.ln.Addr().String()
	for i := 0; i < 3; i++ {
		r := &replica{dir: filepath.Join(dir, fmt.Sprintf("node%d", i))}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, err
		}
		topo, err := topology.PaperFig3()
		if err != nil {
			return nil, err
		}
		if r.store, err = journal.Open(r.dir, journal.Options{Sync: journal.SyncAlways}); err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, r)
		if r.ctl, err = controller.NewWithOptions(topo, operatorPolicy, controller.Options{}); err != nil {
			return nil, err
		}
		role := controller.RoleStandby
		if i == 0 {
			role = controller.RoleLeader
		}
		// Timers are innetd's defaults; FailoverAfter 0 means no node
		// campaigns on its own, so a stall cannot start an election.
		r.node, err = replication.NewNode(r.store, r.ctl, replication.Config{
			Role: role, ListenAddr: "127.0.0.1:0", AdvertiseURL: s.url,
		})
		if err != nil {
			return nil, err
		}
		var sink controller.Journal = r.node
		if traced && i == 0 {
			s.tracer = telemetry.NewTracer(1 << 16)
			r.ctl.AttachTelemetry(nil, s.tracer)
			s.seam = &journalSeam{inner: r.node}
			sink = s.seam
		}
		r.ctl.AttachJournal(sink)
		if err := r.node.Start(); err != nil {
			return nil, err
		}
	}
	for i, r := range s.replicas {
		for j, o := range s.replicas {
			if i != j {
				r.node.AddPeer(o.node.Addr())
			}
		}
	}
	leader := s.replicas[0]
	h := api.NewServer(leader.ctl)
	h.AttachReplication(leader.node)
	h.AttachJournal(leader.store)
	var root http.Handler = h
	if traced {
		s.handler = &handlerSeam{inner: h}
		root = s.handler
	}
	s.srv = &http.Server{Handler: root, ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(s.ln) }()

	// The leader's first strict append waits for follower acks; do not
	// start the clock before both streams are up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		up := 0
		for _, p := range leader.node.Info().PeerDetail {
			if p.Connected {
				up++
			}
		}
		if up == 2 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replication streams not up after 10s (%d of 2)", up)
		}
		time.Sleep(time.Millisecond)
	}
	ok = true
	return s, nil
}

// close stops the server and every node and removes the journals.
func (s *deployStack) close() {
	switch {
	case s.srv != nil: // Shutdown closes the listener too
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.srv.Shutdown(ctx)
		cancel()
		<-s.served
	case s.ln != nil:
		s.ln.Close()
	}
	for _, r := range s.replicas {
		if r.node != nil {
			r.node.Close()
		}
		if r.store != nil {
			r.store.Close()
		}
	}
	os.RemoveAll(s.dir)
}

// journalSeam decorates the leader's replication node at the
// controller.Journal seam: it times every strict append (local fsync +
// quorum ack) and keeps the first admit records for the isolated
// journal measurement.
type journalSeam struct {
	inner *replication.Node
	mu    sync.Mutex
	spans []seamSpan
	admit []journal.Record
}

type seamSpan struct {
	start, end time.Time
	typ        journal.EventType
}

func (j *journalSeam) Append(r journal.Record) error { return j.inner.Append(r) }

func (j *journalSeam) AppendSync(r journal.Record) error {
	t0 := time.Now()
	err := j.inner.AppendSync(r)
	t1 := time.Now()
	j.mu.Lock()
	j.spans = append(j.spans, seamSpan{t0, t1, r.Type})
	if r.Type == journal.EvAdmit && len(j.admit) < 256 {
		j.admit = append(j.admit, r)
	}
	j.mu.Unlock()
	return err
}

// handlerSeam wraps api.Server and times every request, keyed by the
// request id the client stamped into a header.
type handlerSeam struct {
	inner http.Handler
	mu    sync.Mutex
	spans map[int64][2]time.Time
}

func (h *handlerSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	t1 := time.Now()
	if id, err := strconv.ParseInt(r.Header.Get(benchReqHeader), 10, 64); err == nil {
		h.mu.Lock()
		if h.spans == nil {
			h.spans = make(map[int64][2]time.Time)
		}
		h.spans[id] = [2]time.Time{t0, t1}
		h.mu.Unlock()
	}
}

// stampRT adds the current request id to outgoing requests so the
// handler seam can pair its span with the client's.
type stampRT struct {
	inner http.RoundTripper
	cur   atomic.Int64
}

func (s *stampRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := s.cur.Load(); id >= 0 {
		r = r.Clone(r.Context())
		r.Header.Set(benchReqHeader, strconv.FormatInt(id, 10))
	}
	return s.inner.RoundTrip(r)
}

// deployWorker is one client connection.
type deployWorker struct {
	c  *api.Client
	rt *stampRT
}

func newDeployWorker(url string) *deployWorker {
	c := api.NewClient(url)
	c.Retries = 0 // a transient failure is a wrong outcome, not something to paper over
	rt := &stampRT{inner: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	rt.cur.Store(-1)
	c.HTTP.Transport = rt
	return &deployWorker{c: c, rt: rt}
}

func (w *deployWorker) close() {
	w.rt.inner.(*http.Transport).CloseIdleConnections()
}

// deploy sends one request and decodes the verdict the controller gave.
func (w *deployWorker) deploy(d deployReq) (id string, got verdict, err error) {
	resp, err := w.c.Deploy(d.Req)
	switch {
	case err == nil && resp.Sandboxed:
		return resp.ID, vSandboxed, nil
	case err == nil:
		return resp.ID, vAdmitted, nil
	case strings.Contains(err.Error(), "(HTTP 422)"):
		return "", vRejected, nil
	}
	return "", vRejected, err
}

// deployLoad is the state shared by the load-generating workers.
type deployLoad struct {
	seed    int64
	warm    bool
	url     string
	workers []*deployWorker
	pool    []deployReq

	mu       sync.Mutex
	resident []string // FIFO of deployed ids (cold) — the oldest is killed beyond deployResident

	attempted, wrong atomic.Int64
	firstErr         atomic.Pointer[string]
	openLoop         atomic.Bool // a phase-A segment is running
	killNS           []int64     // phase-A kill round trips, guarded by mu
	// tunnelsUnsandboxed is the deliberately wrong expectation of the
	// -wrong-expectation self-test.
	tunnelsUnsandboxed bool
}

func (l *deployLoad) fail(format string, args ...any) {
	l.wrong.Add(1)
	msg := fmt.Sprintf(format, args...)
	l.firstErr.CompareAndSwap(nil, &msg)
}

// request returns request i of a phase: on deploy-warm a pool entry,
// on deploy-cold a never-seen request.
func (l *deployLoad) request(stream uint64, i int) deployReq {
	if l.warm {
		return l.pool[i%len(l.pool)]
	}
	return genDeploy(l.seed, stream, i)
}

// one performs request d on worker w: the deploy, the verdict check,
// and the kill that keeps the resident set at its size. It returns
// the instant the deploy reply was decoded.
func (l *deployLoad) one(w *deployWorker, reqID int64, d deployReq) time.Time {
	w.rt.cur.Store(reqID)
	id, got, err := w.deploy(d)
	done := time.Now()
	w.rt.cur.Store(-1)
	l.attempted.Add(1)
	want := d.Want
	if l.tunnelsUnsandboxed && d.Kind == kindTunnel {
		want = vAdmitted
	}
	switch {
	case err != nil:
		l.fail("%s %s: %v", d.Kind, d.Req.ModuleName, err)
	case got != want:
		l.fail("%s %s: verdict %s, want %s", d.Kind, d.Req.ModuleName, got, want)
	}
	if id == "" {
		return done
	}
	kill := id
	if !l.warm {
		l.mu.Lock()
		l.resident = append(l.resident, id)
		kill = ""
		if len(l.resident) > deployResident {
			kill = l.resident[0]
			l.resident = l.resident[1:]
		}
		l.mu.Unlock()
	}
	if kill != "" {
		t0 := time.Now()
		if err := w.c.Kill(kill); err != nil {
			l.fail("kill %s: %v", kill, err)
		}
		if d := int64(time.Since(t0)); l.openLoop.Load() {
			l.mu.Lock()
			l.killNS = append(l.killNS, d)
			l.mu.Unlock()
		}
	}
	return done
}

// deploySetup boots a stack, deploys the resident set and warms the
// path up; everything in it counts as setup_s.
func deploySetup(o options, warm bool, rep int) (*deployStack, *deployLoad, error) {
	dir := filepath.Join(o.outDir, fmt.Sprintf("journal-%d-%d", os.Getpid(), rep))
	st, err := bootDeployStack(dir, o.trace)
	if err != nil {
		return nil, nil, err
	}
	l := &deployLoad{seed: o.seed, warm: warm, url: st.url}
	for i := 0; i < deployClients; i++ {
		l.workers = append(l.workers, newDeployWorker(st.url))
	}
	w := l.workers[0]
	for i := 0; i < deployResident; i++ {
		d := genAdmittedDeploy(o.seed, streamResident, i)
		id, got, err := w.deploy(d)
		if err != nil || got != d.Want {
			st.close()
			return nil, nil, fmt.Errorf("resident set: %s %s: verdict %s (want %s), err %v", d.Kind, d.Req.ModuleName, got, d.Want, err)
		}
		l.resident = append(l.resident, id)
	}
	for i := 0; i < deployWarmPool; i++ {
		l.pool = append(l.pool, genAdmittedDeploy(o.seed, streamWarmPool, i))
	}
	// Warm-up: the pool requests are admitted and killed, which fills
	// the verdict cache and the element memo for deploy-warm and opens
	// every connection; deploy-cold runs the same number of requests
	// through the same code.
	for round := 0; round < deployWarmRounds; round++ {
		for i, d := range l.pool {
			wk := l.workers[i%len(l.workers)]
			id, got, err := wk.deploy(d)
			if err != nil || got != d.Want {
				st.close()
				return nil, nil, fmt.Errorf("warm-up: %s %s: verdict %s (want %s), err %v", d.Kind, d.Req.ModuleName, got, d.Want, err)
			}
			if err := wk.c.Kill(id); err != nil {
				st.close()
				return nil, nil, fmt.Errorf("warm-up kill: %v", err)
			}
		}
	}
	return st, l, nil
}

// openLoopResult is what runOpenLoop measured.
type openLoopResult struct {
	due        []time.Time
	latencyNS  []int64 // due time → done, per request, in request order
	latenessNS []int64 // due time → actually sent
	rttNS      []int64 // sent → done
}

func (r *openLoopResult) append(o openLoopResult) {
	r.due = append(r.due, o.due...)
	r.latencyNS = append(r.latencyNS, o.latencyNS...)
	r.latenessNS = append(r.latenessNS, o.latenessNS...)
	r.rttNS = append(r.rttNS, o.rttNS...)
}

// runOpenLoop issues requests on a fixed schedule: request i is due at
// start + i*interval, whatever happened to the requests before it. Up
// to `workers` requests are in flight; a request that finds every
// worker busy waits, and that wait is charged to it because latency is
// counted from the due time (no coordinated omission). do returns the
// instant the reply was complete.
func runOpenLoop(start time.Time, interval time.Duration, n, workers int, do func(worker, i int) time.Time) openLoopResult {
	res := openLoopResult{
		due: make([]time.Time, n), latencyNS: make([]int64, n), latenessNS: make([]int64, n), rttNS: make([]int64, n),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sent := waitUntil(due)
				done := do(w, i)
				res.due[i] = due
				res.latenessNS[i] = int64(sent.Sub(due))
				res.rttNS[i] = int64(done.Sub(sent))
				res.latencyNS[i] = int64(done.Sub(due))
			}
		}(w)
	}
	wg.Wait()
	return res
}

// sleepSlack is how long before a due time the generator stops
// sleeping and starts yielding in a loop: timer wake-ups on the
// reference host overshoot by 0.25–0.75 ms, a fifth of a warm deploy,
// and would otherwise be charged to the system as latency.
const sleepSlack = 1500 * time.Microsecond

// waitUntil returns as close after t as it can and reports the time.
func waitUntil(t time.Time) time.Time {
	if d := time.Until(t) - sleepSlack; d > 0 {
		time.Sleep(d)
	}
	now := time.Now()
	for now.Before(t) {
		runtime.Gosched() // lets the servers' goroutines have this CPU while we wait
		now = time.Now()
	}
	return now
}

// runClosedLoop keeps `workers` requests in flight for d and returns
// the completion rate of each slice of the window (completions per
// second, slice by slice).
func runClosedLoop(d time.Duration, workers int, do func(worker, i int) time.Time) []float64 {
	n := sliceCount(d.Seconds())
	slice := d / time.Duration(n)
	counts := make([]atomic.Int64, n)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if k := int(do(w, i).Sub(start) / slice); k < n {
					counts[k].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	rates := make([]float64, n)
	for k := range counts {
		rates[k] = float64(counts[k].Load()) / slice.Seconds()
	}
	return rates
}

// deploySliceSeconds is the slice length of phase A: long enough that
// one slice holds 160 requests, so its p95 has eight samples beyond it.
const deploySliceSeconds = 2

// slicedLatency cuts the phase-A samples (in due-time order) into
// slices and returns each slice's p50 and p95 in milliseconds.
func slicedLatency(latencyNS []int64, perSlice int) (p50s, p95s []float64) {
	for from := 0; from+perSlice <= len(latencyNS); from += perSlice {
		sl := sortedCopy(nsTo(latencyNS[from:from+perSlice], 1e6))
		p50s = append(p50s, quantileSorted(sl, 0.5))
		p95s = append(p95s, quantileSorted(sl, 0.95))
	}
	if len(p50s) == 0 && len(latencyNS) > 0 {
		sl := sortedCopy(nsTo(latencyNS, 1e6))
		p50s, p95s = []float64{quantileSorted(sl, 0.5)}, []float64{quantileSorted(sl, 0.95)}
	}
	return p50s, p95s
}

// runDeploy runs one deploy workload and returns its outcome.
func runDeploy(name string, warm bool, o options) (*outcome, error) {
	out := newOutcome(name, o)
	out.info("input_sha256", deployInputHash(o.seed))
	out.info("journal_fs", fsTypeOf(o.outDir))
	out.info("replication", "3 nodes, quorum, innet-repl/2 over loopback TCP, no injected delay, fsync always")
	out.info("load", fmt.Sprintf("%d HTTP connections; phase A open loop %d/s; phase B closed loop", deployClients, deployRatePerS))

	var st *deployStack
	var l *deployLoad
	var setups []float64
	for rep := 0; rep < o.setupRepeats(); rep++ {
		if st != nil {
			for _, w := range l.workers {
				w.close()
			}
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, l, err = deploySetup(o, warm, rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		for _, w := range l.workers {
			w.close()
		}
		st.close()
	}()
	l.tunnelsUnsandboxed = o.wrongExpectation
	leader := st.replicas[0]

	// Follower lag and leadership term are sampled while the load runs.
	term0 := leader.node.Term()
	var lagMax atomic.Uint64
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	lagWG.Add(1)
	go func() {
		defer lagWG.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-t.C:
				for _, p := range leader.node.Info().PeerDetail {
					if p.Lag > lagMax.Load() {
						lagMax.Store(p.Lag)
					}
				}
			}
		}
	}()

	// The run alternates open-loop (phase A) and closed-loop (phase B)
	// segments, so both phases sample the whole run and a slow stretch
	// of the host lands in some slices of each instead of in one phase.
	const segmentSeconds = deployPhaseASeconds + deployPhaseBSeconds
	segments := int(math.Round(o.seconds / segmentSeconds))
	if segments < 1 {
		segments = 1
	}
	// A run whose length is no multiple of a segment stretches or
	// shrinks both phases alike.
	scale := o.seconds / float64(segments*segmentSeconds)
	durA := time.Duration(deployPhaseASeconds * scale * float64(time.Second))
	durB := time.Duration(deployPhaseBSeconds * scale * float64(time.Second))
	interval := time.Second / deployRatePerS
	nSeg := int(durA / interval)

	var resA openLoopResult
	var windowsA [][2]time.Time
	var ratesB, ratesOne []float64
	var mallocsA, cacheHits, cacheLooks, memoHits, memoLooks uint64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	for k := 0; k < segments; k++ {
		cache0, memo0 := leader.ctl.CacheStats(), leader.ctl.MemoStats()
		runtime.ReadMemStats(&ms0)
		l.openLoop.Store(true)
		start := time.Now()
		resA.append(runOpenLoop(start, interval, nSeg, deployClients, func(w, i int) time.Time {
			i += k * nSeg
			return l.one(l.workers[w], int64(i), l.request(streamPhaseA, i))
		}))
		l.openLoop.Store(false)
		windowsA = append(windowsA, [2]time.Time{start, time.Now()})
		runtime.ReadMemStats(&ms1)
		cache1, memo1 := leader.ctl.CacheStats(), leader.ctl.MemoStats()
		mallocsA += ms1.Mallocs - ms0.Mallocs
		cacheHits += cache1.Hits - cache0.Hits
		cacheLooks += cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses
		memoHits += memo1.Hits - memo0.Hits
		memoLooks += memo1.Hits - memo0.Hits + memo1.Misses - memo0.Misses

		// Saturation. The traced run gives every other segment to a
		// single client, for the scaling of capacity from one to two.
		clients, stream, into := deployClients, streamPhaseB, &ratesB
		if o.trace && k%2 == 1 {
			clients, stream, into = 1, streamScaling, &ratesOne
		}
		base := len(*into) * 1000000
		*into = append(*into, runClosedLoop(durB, clients, func(w, i int) time.Time {
			return l.one(l.workers[w], int64(1e9)+int64(base+i), l.request(stream, base+i))
		})...)
	}
	nA := len(resA.latencyNS)
	// The deploy path reduces its slices by their median, not by the
	// fast-side decile the packet path uses: its speed drifts with the
	// host's disk and wake-up latency over tens of seconds, longer than
	// a slice and often longer than a run, so the fast end of the
	// slices is no steadier than their middle (README, "How a timing is
	// reduced"), and the per-layer p50s are medians over phase A too.
	capacity := median(ratesB)
	var scaling float64
	if len(ratesOne) > 0 {
		scaling = capacity / median(ratesOne)
	}
	l.mu.Lock()
	killsA := append([]int64(nil), l.killNS...)
	l.mu.Unlock()
	close(stopLag)
	lagWG.Wait()
	rss := peakRSSMB() // before the statistics below allocate their copies of the samples

	out.attempted = l.attempted.Load()
	out.failed = l.wrong.Load()
	if msg := l.firstErr.Load(); msg != nil {
		out.info("first_wrong", *msg)
	}
	if t := leader.node.Term(); t != term0 {
		out.failed++
		out.info("election", fmt.Sprintf("leader term went from %d to %d during the run", term0, t))
	}
	if err := leader.ctl.JournalErr(); err != nil {
		out.failed++
		out.info("journal_error", err.Error())
	}
	latMS := sortedCopy(nsTo(resA.latencyNS, 1e6))
	late := sortedCopy(nsTo(resA.latenessNS, 1e6))
	out.info("phase_a_samples", fmt.Sprintf("%d in slices of %d", len(latMS), deploySliceSeconds*deployRatePerS))
	if q, ok := highestPercentile(len(latMS)); ok {
		out.info("deploy_whole_phase_a", fmt.Sprintf("p50 %.3f ms, p95 %.3f ms, highest percentile with ≥10 samples beyond it: p%g = %.3f ms, max %.3f ms",
			quantileSorted(latMS, 0.5), quantileSorted(latMS, 0.95), q*100, quantileSorted(latMS, q), quantileSorted(latMS, 1)))
	}
	out.info("generator_lateness", fmt.Sprintf("p50 %.3f ms, p99 %.3f ms, max %.3f ms", quantileSorted(late, 0.5), quantileSorted(late, 0.99), quantileSorted(late, 1)))
	out.info("phase_b_capacity", fmt.Sprintf("%.1f deploys/s; open-loop rate is %.0f%% of it", capacity, 100*deployRatePerS/capacity))

	p50s, p95s := slicedLatency(resA.latencyNS, deploySliceSeconds*deployRatePerS)
	deployP50 := median(p50s)
	out.info("slice_p50_ms", joinF(p50s, "%.2f"))
	out.info("slice_p95_ms", joinF(p95s, "%.2f"))
	out.info("slice_capacity_per_s", joinF(ratesB, "%.0f"))
	out.e2e("rate_per_s", capacity)
	out.e2e("latency_p50_us", deployP50*1e3)
	deployP95 := median(p95s)
	out.info("deploy_p95_ms", fmt.Sprintf("%.3f (median of the per-slice p95; a per-layer metric, see README)", deployP95))
	out.e2e("allocs_per_op", float64(mallocsA)/float64(max(nA, 1)))
	out.e2e("setup_s", median(setups))
	out.e2e("peak_rss_mb", rss)
	if !o.trace {
		return out, nil
	}
	out.layer("harness.deploy_p95_ms", deployP95)
	return out, deployLayers(out, o, name, st, l, phaseA{
		res: resA, windows: windowsA, killNS: killsA, p50MS: deployP50, scaling: scaling,
		cacheHit: ratio(cacheHits, cacheLooks), memoHit: ratio(memoHits, memoLooks),
		lagMax: float64(lagMax.Load()), elections: float64(leader.node.Term() - term0),
	})
}

// phaseA is what the measured loop hands to deployLayers.
type phaseA struct {
	res      openLoopResult
	windows  [][2]time.Time // when open-loop segments ran
	killNS   []int64
	p50MS    float64
	scaling  float64
	cacheHit float64
	memoHit  float64
	lagMax   float64
	// elections is the leader's term delta over the run (must be 0).
	elections float64
}

func ratio(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// deployLayers turns the spans of the traced phase A into the
// per-layer metrics, the budget table and the trace file.
func deployLayers(out *outcome, o options, name string, st *deployStack, l *deployLoad, a phaseA) error {
	resA := a.res
	rec := newRecorder(1 << 20)
	rec.epoch = a.windows[0][0]
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// Controller traces by module name; deploy-warm re-deploys the same
	// names, so a request's trace is the one that began inside its
	// handler span.
	traces := make(map[string][]telemetry.Trace)
	for _, tr := range st.tracer.Recent(0) {
		if tr.Kind == "deploy" {
			traces[tr.ID] = append(traces[tr.ID], tr)
		}
	}
	traceOf := func(name string, from, to time.Time) (telemetry.Trace, bool) {
		for _, tr := range traces[name] {
			if !tr.Start.Before(from) && !tr.Start.After(to) {
				return tr, true
			}
		}
		return telemetry.Trace{}, false
	}
	stageNames := map[string]string{
		controller.StageCanonicalize: "clicklang.canonicalize_ms_p50",
		controller.StageCacheLookup:  "symexec.cache_lookup_ms_p50",
		controller.StageSecurity:     "security.check_ms_p50",
		controller.StagePolicyCheck:  "policy.check_ms_p50",
		controller.StagePlacement:    "topology.placement_ms_p50",
	}
	stage := make(map[string][]float64)
	var clientSelf, handlerSelf, ctlSelf, journalStage []float64
	st.handler.mu.Lock()
	for i := range resA.rttNS {
		d := l.request(streamPhaseA, i)
		due := resA.due[i]
		sent := due.Add(time.Duration(resA.latenessNS[i]))
		done := due.Add(time.Duration(resA.latencyNS[i]))
		rec.add(span{Name: "deploy", Req: int64(i), Start: rec.since(due), End: rec.since(done)})
		rec.add(span{Name: "api.Client.Deploy", Req: int64(i), Parent: "deploy", Start: rec.since(sent), End: rec.since(done)})
		hs, ok := st.handler.spans[int64(i)]
		if !ok {
			continue
		}
		rec.add(span{Name: "api.Server", Req: int64(i), Parent: "api.Client.Deploy", Start: rec.since(hs[0]), End: rec.since(hs[1])})
		handler := hs[1].Sub(hs[0])
		clientSelf = append(clientSelf, ms(time.Duration(resA.rttNS[i])-handler))
		tr, ok := traceOf(d.Req.ModuleName, hs[0], hs[1])
		if !ok {
			continue
		}
		rec.add(span{Name: "controller.Deploy", Req: int64(i), Parent: "api.Server", Start: rec.since(tr.Start), End: rec.since(tr.Start.Add(tr.Total))})
		handlerSelf = append(handlerSelf, ms(handler-tr.Total))
		per := make(map[string]time.Duration)
		var staged time.Duration
		at := tr.Start
		for _, sg := range tr.Stages {
			per[sg.Name] += sg.Duration
			staged += sg.Duration
			// Stages carry a duration and an order, not a start; lay
			// them end to end from the trace start for the file.
			rec.add(span{Name: "controller." + sg.Name, Req: int64(i), Parent: "controller.Deploy", Start: rec.since(at), End: rec.since(at.Add(sg.Duration))})
			at = at.Add(sg.Duration)
		}
		for sn := range stageNames {
			stage[sn] = append(stage[sn], ms(per[sn]))
		}
		journalStage = append(journalStage, ms(per[controller.StageJournalAppend]))
		ctlSelf = append(ctlSelf, ms(tr.Total-staged))
	}
	st.handler.mu.Unlock()

	// Journal seam: strict appends of phase A, split by record type.
	var admitSync, killSync []float64
	inPhaseA := func(t time.Time) bool {
		for _, w := range a.windows {
			if !t.Before(w[0]) && !t.After(w[1]) {
				return true
			}
		}
		return false
	}
	st.seam.mu.Lock()
	for k, sp := range st.seam.spans {
		if !inPhaseA(sp.start) {
			continue
		}
		rec.add(span{Name: "replication.AppendSync(" + string(sp.typ) + ")", Req: int64(k), Parent: "controller.journal-append", Start: rec.since(sp.start), End: rec.since(sp.end)})
		if sp.typ == journal.EvAdmit {
			admitSync = append(admitSync, ms(sp.end.Sub(sp.start)))
		} else {
			killSync = append(killSync, ms(sp.end.Sub(sp.start)))
		}
	}
	admits := append([]journal.Record(nil), st.seam.admit...)
	st.seam.mu.Unlock()

	appendMS, bytesPer, err := journalIsolated(filepath.Join(o.outDir, fmt.Sprintf("scratch-%d", os.Getpid())), admits)
	if err != nil {
		return err
	}

	for sn, metric := range stageNames {
		out.layer(metric, median(stage[sn]))
	}
	out.layer("api.client_self_ms_p50", median(clientSelf))
	out.layer("api.handler_self_ms_p50", median(handlerSelf))
	out.layer("controller.self_ms_p50", median(ctlSelf))
	out.layer("controller.capacity_scaling", a.scaling)
	out.layer("controller.kill_ms_p50", median(nsTo(a.killNS, 1e6)))
	out.layer("symexec.cache_hit_ratio", a.cacheHit)
	out.layer("symexec.memo_hit_ratio", a.memoHit)
	out.layer("replication.append_sync_ms_p50", median(admitSync))
	out.layer("journal.append_ms_p50", appendMS)
	out.layer("journal.bytes_per_deploy", bytesPer)
	out.layer("replication.self_ms_p50", median(admitSync)-appendMS)
	out.layer("replication.peer_lag_max", a.lagMax)
	out.layer("replication.elections", a.elections)
	lateMS := sortedCopy(nsTo(resA.latenessNS, 1e6))
	out.layer("harness.deploy_p50_ms", a.p50MS)
	out.layer("harness.lateness_ms_p99", quantileSorted(lateMS, 0.99))
	out.info("kill_append_sync_ms_p50", fmt.Sprintf("%.3f", median(killSync)))
	out.info("journal_stage_ms_p50", fmt.Sprintf("%.3f (controller's own journal-append stage; the seam span sits inside it)", median(journalStage)))

	out.BudgetUnit = "ms per deploy"
	out.BudgetHeadline = "harness.deploy_p50_ms"
	out.Budget = []budgetRow{
		{"harness (open-loop lateness, p50)", quantileSorted(lateMS, 0.5)},
		{"api client (RTT minus handler)", median(clientSelf)},
		{"api handler (minus controller)", median(handlerSelf)},
		{"controller (unstaged residue)", median(ctlSelf)},
		{"clicklang canonicalize", median(stage[controller.StageCanonicalize])},
		{"symexec cache lookup", median(stage[controller.StageCacheLookup])},
		{"security symexec", median(stage[controller.StageSecurity])},
		{"policy check", median(stage[controller.StagePolicyCheck])},
		{"topology placement (compile + build)", median(stage[controller.StagePlacement])},
		{"replication AppendSync (fsync + quorum ack)", median(journalStage)},
		{"  of which journal append, isolated", appendMS},
	}
	for _, r := range out.Budget[:10] {
		out.BudgetSum += r.Value
	}
	return rec.writeJSONL(o.tracePath(name))
}

// journalIsolated appends the captured admit records to a scratch
// SyncAlways store, outside the deploy path, and returns the median
// append time and the bytes one admit record takes on disk.
func journalIsolated(dir string, recs []journal.Record) (appendMS, bytesPer float64, err error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	s, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways, CompactEvery: -1})
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	var ds []float64
	for _, r := range recs {
		t0 := time.Now()
		if err := s.Append(r); err != nil {
			return 0, 0, err
		}
		ds = append(ds, float64(time.Since(t0))/1e6)
	}
	fi, err := os.Stat(filepath.Join(dir, journal.JournalFile))
	if err != nil {
		return 0, 0, err
	}
	return median(ds), float64(fi.Size()) / float64(len(recs)), nil
}

// fsTypeOf names the filesystem holding path (fsync cost is part of
// the deploy numbers), from /proc/mounts; "unknown" elsewhere.
func fsTypeOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
