package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/pipeline"
	"github.com/in-net/innet/internal/platform"
	"github.com/in-net/innet/internal/vswitch"
)

// Fixed amounts of set-up work, counted in bursts rather than seconds
// so that setup_s grows when the path gets slower.
const (
	pktCrossCheckBursts = 2000  // through the graph-walk interpreter
	pktWarmBursts       = 20000 // through the measured stack
	pktIsolatedBursts   = 4096
	pktIsolatedPasses   = 8
	pktSpanEvery        = 512 // bursts between two whose spans go to the trace file
)

// pktStack is the packet path wired as api.Simulator wires it: a
// single-shard vswitch whose batch sink delivers into one simulated
// platform, which schedules per-packet processing on the netsim event
// heap and runs the compiled pipeline (or the graph walk) when the
// event fires.
type pktStack struct {
	sim   *netsim.Sim
	plat  *platform.Platform
	sw    *vswitch.Switch
	rules []*vswitch.Rule
}

func newPktStack(seed int64) *pktStack {
	sim := netsim.New(seed)
	plat := platform.New(sim, platform.DefaultModel(), 16*1024)
	plat.TraceEvery = -1 // no sampled path tracing: the benchmark brings its own spans
	return &pktStack{sim: sim, plat: plat, sw: vswitch.New()}
}

func moduleSpec(m *pktModule, noPipeline bool) platform.ModuleSpec {
	return platform.ModuleSpec{Addr: m.Addr, Config: m.Config, Stateful: m.Stateful, NoPipeline: noPipeline}
}

func moduleRule(m *pktModule) vswitch.Rule {
	return vswitch.Rule{Priority: 10, Match: vswitch.Match{DstIP: m.Addr},
		Action: vswitch.ActToModule, Module: m.Addr}
}

// pktRun drives one generator through one stack and checks every
// packet's fate.
type pktRun struct {
	g          *pktGen
	st         *pktStack
	noPipeline bool

	slots []*packet.Packet
	fates []fate
	got   [burstSize]uint8
	// rr counts, per module slot, transmissions on interface 0 and 1
	// for flows whose fate allows either (the balancer invariant).
	rr [][2]int64

	bursts, sent, wrong uint64
	expectedDrops       uint64

	// Tracing state (nil rec = untraced).
	rec                   *recorder
	clock                 int64
	keep                  bool
	curBurst              int64
	deliverNS, txNS       int64
	deliverCalls, txCalls int64
	deliverTotal          uint64 // ToModuleBatch calls since the run began
	selfVS, selfDeliver   []uint32
	selfDrain, selfTx     []uint32
	installNS, registerNS []int64
}

func newPktRun(seed int64, p pktParams, noPipeline bool, rec *recorder) (*pktRun, error) {
	g, err := newPktGen(seed, p)
	if err != nil {
		return nil, err
	}
	r := &pktRun{g: g, st: newPktStack(seed), noPipeline: noPipeline, rec: rec,
		slots: make([]*packet.Packet, burstSize), fates: make([]fate, burstSize),
		rr: make([][2]int64, p.Modules)}
	for i := range r.slots {
		r.slots[i] = new(packet.Packet)
	}
	if rec == nil {
		r.st.sw.ToModuleBatch = func(_ uint32, pkts []*packet.Packet) {
			r.st.plat.DeliverBatch(pkts, r.tx)
		}
	} else {
		r.clock = int64(clockCost())
		r.st.sw.ToModuleBatch = r.deliverTraced
	}
	r.st.rules = make([]*vswitch.Rule, p.Modules)
	for i := range g.Modules {
		if err := r.register(i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// register installs module slot i on the platform and its dispatch
// rule on the vswitch, as api.Simulator.Register does.
func (r *pktRun) register(i int) error {
	m := &r.g.Modules[i]
	t0 := time.Now()
	if err := r.st.plat.Register(moduleSpec(m, r.noPipeline)); err != nil {
		return fmt.Errorf("register module %d (%s): %w", i, m.Fam, err)
	}
	t1 := time.Now()
	r.st.rules[i] = r.st.sw.Install(moduleRule(m))
	if r.rec != nil {
		r.registerNS = append(r.registerNS, int64(t1.Sub(t0)))
		r.installNS = append(r.installNS, int64(time.Since(t1)))
	}
	r.g.flushed()
	return nil
}

// churn retires one module and registers its successor.
func (r *pktRun) churn() error {
	slot, err := r.g.replaceModule()
	if err != nil {
		return err
	}
	if c := r.rr[slot]; c[0]-c[1] > 1 || c[1]-c[0] > 1 {
		r.wrong++
	}
	r.rr[slot] = [2]int64{}
	addr := r.g.Modules[slot].Addr
	t0 := time.Now()
	r.st.plat.Unregister(addr)
	t1 := time.Now()
	if err := r.st.sw.Remove(r.st.rules[slot]); err != nil {
		return err
	}
	if r.rec != nil {
		r.registerNS = append(r.registerNS, int64(t1.Sub(t0)))
		r.installNS = append(r.installNS, int64(time.Since(t1)))
	}
	return r.register(slot)
}

// tx is the Tx callback: the end of the packet path. It checks the
// transmitted header against the packet's fate.
func (r *pktRun) tx(iface int, pk *packet.Packet) {
	id := pk.UserID
	if id >= burstSize {
		r.wrong++
		return
	}
	r.got[id]++
	f := &r.fates[id]
	if !f.matches(iface, pk) {
		r.wrong++
		return
	}
	if f.Iface < 0 && iface < 2 {
		r.rr[f.Mod][iface]++
	}
}

func (r *pktRun) txTraced(iface int, pk *packet.Packet) {
	t0 := time.Now()
	r.tx(iface, pk)
	r.txNS += int64(time.Since(t0))
	r.txCalls++
}

func (r *pktRun) deliverTraced(_ uint32, pkts []*packet.Packet) {
	t0 := time.Now()
	r.st.plat.DeliverBatch(pkts, r.txTraced)
	t1 := time.Now()
	r.deliverNS += int64(t1.Sub(t0))
	r.deliverCalls++
	r.deliverTotal++
	if r.keep {
		r.rec.add(span{Name: "platform.DeliverBatch", Req: r.curBurst, Parent: "vswitch.ProcessBatch",
			Start: r.rec.since(t0), End: r.rec.since(t1), N: len(pkts)})
	}
}

func (r *pktRun) retire(t packet.FiveTuple) { r.st.sw.ExpireFlow(t) }

// burst generates, sends and drains one burst and returns when the
// drain ended together with the ProcessBatch→Run latency.
func (r *pktRun) burst() (time.Time, time.Duration, error) {
	if r.g.P.ChurnEvery > 0 && r.bursts > 0 && r.bursts%uint64(r.g.P.ChurnEvery) == 0 {
		if err := r.churn(); err != nil {
			return time.Time{}, 0, err
		}
	}
	r.g.fill(r.slots, r.fates, r.retire)
	var end time.Time
	var lat time.Duration
	if r.rec == nil {
		t0 := time.Now()
		r.st.sw.ProcessBatch(r.slots)
		r.st.sim.Run()
		end = time.Now()
		lat = end.Sub(t0)
	} else {
		end, lat = r.burstTraced()
	}
	for i := range r.slots {
		want := uint8(0)
		if r.fates[i].Tx {
			want = 1
		} else {
			r.expectedDrops++
		}
		if r.got[i] != want {
			r.wrong++
		}
		r.got[i] = 0
	}
	r.bursts++
	r.sent += burstSize
	return end, lat, nil
}

func (r *pktRun) burstTraced() (time.Time, time.Duration) {
	r.curBurst = int64(r.bursts)
	r.keep = r.bursts%pktSpanEvery == 0
	r.deliverNS, r.txNS, r.deliverCalls, r.txCalls = 0, 0, 0, 0
	t0 := time.Now()
	r.st.sw.ProcessBatch(r.slots)
	t1 := time.Now()
	r.st.sim.Run()
	t2 := time.Now()
	// Self time = span minus children, minus what the children's own
	// timer calls cost the parent.
	vs := int64(t1.Sub(t0)) - r.deliverNS - r.deliverCalls*r.clock
	drain := int64(t2.Sub(t1)) - r.txNS - r.txCalls*r.clock
	r.selfVS = append(r.selfVS, clampU32(vs))
	r.selfDeliver = append(r.selfDeliver, clampU32(r.deliverNS))
	r.selfDrain = append(r.selfDrain, clampU32(drain))
	r.selfTx = append(r.selfTx, clampU32(r.txNS))
	if r.keep {
		b := r.curBurst
		r.rec.add(span{Name: "burst", Req: b, Start: r.rec.since(t0), End: r.rec.since(t2), N: burstSize})
		r.rec.add(span{Name: "vswitch.ProcessBatch", Req: b, Parent: "burst", Start: r.rec.since(t0), End: r.rec.since(t1)})
		r.rec.add(span{Name: "netsim.Run", Req: b, Parent: "burst", Start: r.rec.since(t1), End: r.rec.since(t2)})
		// The Tx callbacks of one burst are folded into one span: its
		// length is their summed duration, placed at the end of Run.
		r.rec.add(span{Name: "tx", Req: b, Parent: "netsim.Run", Start: r.rec.since(t2) - r.txNS, End: r.rec.since(t2), N: int(r.txCalls)})
	}
	return t2, t2.Sub(t0)
}

func clampU32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}

// finish checks the end-of-run invariants that cannot be checked per
// packet and returns the number of wrong outcomes in total.
func (r *pktRun) finish() uint64 {
	for _, c := range r.rr {
		if c[0]-c[1] > 1 || c[1]-c[0] > 1 {
			r.wrong++
		}
	}
	// Conservation: every generated packet was dispatched by the
	// vswitch, none missed the table, and the platform dropped none on
	// its own (boot buffers never overflow because every burst drains).
	if r.st.sw.Dispatched() != r.sent || r.st.sw.Misses() != 0 || r.st.plat.DroppedTotal() != 0 {
		r.wrong++
	}
	return r.wrong
}

// pktSetup builds the measured stack: cross-check of the hand-written
// expectation against the graph-walk interpreter, then the compiled
// stack and its warm-up.
func pktSetup(seed int64, p pktParams, rec *recorder) (*pktRun, error) {
	ref, err := newPktRun(seed, p, true, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < pktCrossCheckBursts; i++ {
		if _, _, err := ref.burst(); err != nil {
			return nil, err
		}
	}
	if w := ref.finish(); w != 0 {
		return nil, fmt.Errorf("reference cross-check: %d of %d packets disagree between the hand-written expectation and the graph-walk interpreter", w, ref.sent)
	}
	r, err := newPktRun(seed, p, false, rec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < pktWarmBursts; i++ {
		if _, _, err := r.burst(); err != nil {
			return nil, err
		}
	}
	if r.wrong != 0 {
		return nil, fmt.Errorf("warm-up: %d wrong packet outcomes", r.wrong)
	}
	return r, nil
}

// pktCounters snapshots the counters the per-layer metrics are deltas of.
type pktCounters struct {
	sent, cold, newFlows  uint64
	swNew, swDisp, swMiss uint64
	events                uint64
	pipePkts              uint64
	mallocs               uint64
	deliverCalls          uint64
}

func (r *pktRun) counters() pktCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return pktCounters{
		sent: r.sent, cold: r.g.cold, newFlows: r.g.newFlows,
		swNew: r.st.sw.NewFlows(), swDisp: r.st.sw.Dispatched(), swMiss: r.st.sw.Misses(),
		events: r.st.sim.Executed, pipePkts: r.st.plat.PipelinePackets, mallocs: ms.Mallocs,
		deliverCalls: r.deliverTotal,
	}
}

// runPkt runs one packet workload and returns its outcome.
func runPkt(name string, p pktParams, o options) (*outcome, error) {
	out := newOutcome(name, o)
	hash, err := pktInputHash(o.seed, p)
	if err != nil {
		return nil, err
	}
	out.info("input_sha256", hash)
	out.info("pinned_cpu", fmt.Sprint(pinToOneCPU()))

	var rec *recorder
	var run *pktRun
	var setups []float64
	for i := 0; i < o.setupRepeats(); i++ {
		run = nil
		runtime.GC() // each repetition starts from the same heap, not its predecessor's garbage
		if o.trace {
			rec = newRecorder(400000)
		}
		t0 := time.Now()
		run, err = pktSetup(o.seed, p, rec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if o.wrongExpectation {
		for i := range run.g.Flows {
			run.g.Flows[i].Fate.TTL ^= 0x80
		}
	}

	nSlices := sliceCount(o.seconds)
	sliceDur := time.Duration(o.seconds / float64(nSlices) * float64(time.Second))
	rates := make([]float64, nSlices)
	// One latency sample per burst, a buffer per slice sized from the
	// slice before it, so the memory held follows the work done.
	lat := make([][]uint32, nSlices)
	sliceEnd := make([]int, nSlices) // bursts measured up to the end of each slice
	samples := pktWarmBursts / 4
	var measured float64
	runtime.GC()
	c0 := run.counters()
	for s := 0; s < nSlices; s++ {
		cur := make([]uint32, 0, samples+samples/4+1024)
		start := time.Now()
		first := run.sent
		now := start
		for now.Sub(start) < sliceDur {
			end, d, err := run.burst()
			if err != nil {
				return nil, err
			}
			now = end
			cur = append(cur, clampU32(int64(d)))
		}
		rates[s] = float64(run.sent-first) / now.Sub(start).Seconds()
		lat[s], samples = cur, len(cur)
		sliceEnd[s] = samples
		if s > 0 {
			sliceEnd[s] += sliceEnd[s-1]
		}
		measured += now.Sub(start).Seconds()
	}
	c1 := run.counters()
	rss := peakRSSMB() // before the statistics below allocate their copies of the samples
	wrong := run.finish()
	pkts := float64(c1.sent - c0.sent)

	out.attempted = int64(c1.sent - c0.sent)
	out.failed = int64(wrong)
	// Per-slice percentiles of the burst latency, then the fast-side
	// decile of the slices (see fastSide).
	p50s, p95s := make([]float64, 0, nSlices), make([]float64, 0, nSlices)
	all := make([]float64, 0, sliceEnd[nSlices-1])
	for _, cur := range lat {
		sl := sortedCopy(nsTo(cur, 1e3))
		p50s = append(p50s, quantileSorted(sl, 0.5))
		p95s = append(p95s, quantileSorted(sl, 0.95))
		all = append(all, sl...)
	}
	sort.Float64s(all)
	out.info("burst_samples", fmt.Sprintf("%d in %d slices of %.2fs", len(all), nSlices, sliceDur.Seconds()))
	if q, ok := highestPercentile(len(all)); ok {
		out.info("burst_whole_run", fmt.Sprintf("p50 %.2f us, p99 %.2f us, highest percentile with ≥10 samples beyond it: p%g = %.2f us",
			quantileSorted(all, 0.5), quantileSorted(all, 0.99), q*100, quantileSorted(all, q)))
	}
	out.info("expected_drops", fmt.Sprintf("%d of %d packets (by construction)", run.expectedDrops, run.sent))
	out.info("slice_rates_pps", joinF(rates, "%.0f"))

	burstP50 := fastSide(p50s, false)
	out.e2e("rate_per_s", fastSide(rates, true))
	out.e2e("latency_p50_us", burstP50)
	burstP95 := fastSide(p95s, false)
	out.info("burst_p95_us", fmt.Sprintf("%.2f (fast-side decile of the per-slice p95; a per-layer metric, see README)", burstP95))
	out.e2e("allocs_per_op", float64(c1.mallocs-c0.mallocs)/pkts)
	out.e2e("setup_s", median(setups))
	out.e2e("peak_rss_mb", rss)

	if !o.trace {
		return out, nil
	}

	// Per-layer numbers: spans of the traced loop, then counters, then
	// the layers called in isolation on the same generated inputs.
	// Same estimator as the headline: per-slice median of the per-burst
	// self time, fast-side decile of the slices, then per packet.
	perPkt := func(xs []uint32) float64 {
		var meds []float64
		from := 0
		for _, to := range sliceEnd {
			if to > len(xs) {
				to = len(xs)
			}
			if to > from {
				meds = append(meds, median(nsTo(xs[from:to], 1)))
			}
			from = to
		}
		return fastSide(meds, false) / burstSize
	}
	vsSelf, deliver, drain, txSelf := perPkt(run.selfVS), perPkt(run.selfDeliver), perPkt(run.selfDrain), perPkt(run.selfTx)
	out.layer("vswitch.self_ns_per_pkt", vsSelf)
	out.layer("platform.deliver_ns_per_pkt", deliver)
	out.layer("platform.drain_ns_per_pkt", drain)
	out.layer("harness.tx_check_ns_per_pkt", txSelf)
	out.layer("harness.burst_p50_us", burstP50)
	out.layer("harness.burst_p95_us", burstP95)
	out.layer("vswitch.run_len_pkts", float64(c1.swDisp-c0.swDisp)/float64(c1.deliverCalls-c0.deliverCalls))
	out.layer("vswitch.cold_lookup_ratio", float64(c1.cold-c0.cold)/pkts)
	out.layer("vswitch.new_flows_per_s", float64(c1.swNew-c0.swNew)/measured)
	out.layer("vswitch.dispatched", float64(c1.swDisp-c0.swDisp))
	out.layer("vswitch.misses", float64(c1.swMiss-c0.swMiss))
	out.layer("vswitch.install_us_p50", median(nsTo(run.installNS[p.Modules:], 1e3)))
	out.layer("platform.register_us_p50", median(nsTo(run.registerNS[p.Modules:], 1e3)))
	out.layer("platform.pipeline_share", float64(c1.pipePkts-c0.pipePkts)/pkts)
	out.layer("platform.dropped_total", float64(run.st.plat.DroppedTotal()))
	out.layer("netsim.events_per_pkt", float64(c1.events-c0.events)/pkts)
	fallback := 0.0
	for _, n := range run.st.plat.PipelineFallbackReasons() {
		fallback += float64(n)
	}
	out.layer("pipeline.fallback_modules", fallback)

	iso, err := pktIsolated(o.seed, p)
	if err != nil {
		return nil, err
	}
	wholeAllocs := float64(c1.mallocs-c0.mallocs) / pkts
	out.layer("vswitch.allocs_per_pkt", iso.vswitchAllocs)
	out.layer("pipeline.allocs_per_pkt", iso.pipelineAllocs)
	out.layer("platform.allocs_per_pkt", wholeAllocs-iso.vswitchAllocs-iso.pipelineAllocs)
	out.layer("netsim.event_ns", iso.eventNS)
	out.layer("pipeline.run_ns_per_pkt", iso.pipelineNS)
	out.layer("pipeline.compile_us_p50", iso.compileUS)
	out.layer("click.graphwalk_ns_per_pkt", iso.graphwalkNS)

	out.BudgetUnit = "us per burst"
	out.BudgetHeadline = "harness.burst_p50_us"
	toUS := func(nsPerPkt float64) float64 { return nsPerPkt * burstSize / 1e3 }
	out.Budget = []budgetRow{
		{"vswitch (ProcessBatch self)", toUS(vsSelf)},
		{"platform (DeliverBatch: schedule one event per packet)", toUS(deliver)},
		{"platform+netsim+pipeline (Run drain, Tx excluded)", toUS(drain)},
		{"  of which pipeline alone", toUS(iso.pipelineNS * float64(c1.pipePkts-c0.pipePkts) / pkts)},
		{"  netsim heap alone, push+pop (spans deliver and drain)", toUS(iso.eventNS * float64(c1.events-c0.events) / pkts)},
		{"harness (Tx check)", toUS(txSelf)},
	}
	out.BudgetSum = toUS(vsSelf + deliver + drain + txSelf)
	if err := rec.writeJSONL(o.tracePath(name)); err != nil {
		return nil, err
	}
	return out, nil
}

type pktIso struct {
	vswitchAllocs, pipelineAllocs  float64
	eventNS, pipelineNS, compileUS float64
	graphwalkNS                    float64
}

// fastestPass times pktIsolatedPasses passes of fn (which returns how
// many operations it did) and returns the nanoseconds per operation of
// the fastest pass — the isolated loops are short, so one stretch of
// host interference would otherwise decide the number (see fastSide).
func fastestPass(fn func() int) float64 {
	best := 0.0
	for p := 0; p < pktIsolatedPasses; p++ {
		t0 := time.Now()
		n := fn()
		if n == 0 {
			return 0
		}
		if ns := float64(time.Since(t0)) / float64(n); best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// pktIsolated calls single layers directly on the same generated
// inputs, outside the packet path.
func pktIsolated(seed int64, p pktParams) (*pktIso, error) {
	iso := &pktIso{}
	g, err := newPktGen(seed, p)
	if err != nil {
		return nil, err
	}
	slots := make([]*packet.Packet, burstSize)
	for i := range slots {
		slots[i] = new(packet.Packet)
	}
	fates := make([]fate, burstSize)
	var ms0, ms1 runtime.MemStats

	// vswitch alone: same rules, same bursts, a sink that does nothing.
	sw := vswitch.New()
	sw.ToModuleBatch = func(uint32, []*packet.Packet) {}
	for i := range g.Modules {
		sw.Install(moduleRule(&g.Modules[i]))
	}
	retire := func(t packet.FiveTuple) { sw.ExpireFlow(t) }
	for b := 0; b < pktIsolatedBursts; b++ { // warm the flow cache
		g.fill(slots, fates, retire)
		sw.ProcessBatch(slots)
	}
	runtime.ReadMemStats(&ms0)
	for b := 0; b < pktIsolatedBursts; b++ {
		g.fill(slots, fates, retire)
		sw.ProcessBatch(slots)
	}
	runtime.ReadMemStats(&ms1)
	iso.vswitchAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(pktIsolatedBursts*burstSize)

	// netsim alone: schedule one burst of no-op events and drain.
	sim := netsim.New(seed)
	noop := func() {}
	iso.eventNS = fastestPass(func() int {
		for b := 0; b < pktIsolatedBursts/pktIsolatedPasses; b++ {
			for i := 0; i < burstSize; i++ {
				sim.After(netsim.Time(i+1), noop)
			}
			sim.Run()
		}
		return pktIsolatedBursts / pktIsolatedPasses * burstSize
	})

	// pipeline / graph walk alone: one Exec (or Router) per module,
	// driven packet by packet the way platform.process drives it.
	execs := make([]*pipeline.Exec, len(g.Modules))
	routers := make([]*click.Router, len(g.Modules))
	var compileUS []float64
	for i := range g.Modules {
		t0 := time.Now()
		prog, err := pipeline.CompileConfig(g.Modules[i].Config)
		compileUS = append(compileUS, float64(time.Since(t0))/1e3)
		if err == nil {
			x := pipeline.NewExec(prog)
			x.Transmit = func(int, *packet.Packet) {}
			x.Now = func() int64 { return 0 }
			execs[i] = x
			continue
		}
		cfg, perr := clicklang.Parse(g.Modules[i].Config)
		if perr != nil {
			return nil, perr
		}
		if routers[i], perr = click.Build(cfg); perr != nil {
			return nil, perr
		}
	}
	iso.compileUS = median(compileUS)
	ctx := &click.Context{Now: func() int64 { return 0 }, Transmit: func(int, *packet.Packet) {}}
	// Two passes over the same bursts, one per dataplane, each timed as
	// a whole so no timer call sits between two packets.
	type item struct {
		mod int
		pk  packet.Packet
	}
	items := make([]item, 0, pktIsolatedBursts*burstSize)
	for b := 0; b < pktIsolatedBursts; b++ {
		g.fill(slots, fates, nil)
		for i, s := range slots {
			items = append(items, item{mod: int(fates[i].Mod), pk: *s})
		}
	}
	var scratch packet.Packet
	runtime.ReadMemStats(&ms0)
	nPipe := 0
	iso.pipelineNS = fastestPass(func() int {
		n := 0
		for i := range items {
			if x := execs[items[i].mod]; x != nil {
				scratch = items[i].pk
				_ = x.RunOne(0, &scratch)
				n++
			}
		}
		nPipe += n
		return n
	})
	runtime.ReadMemStats(&ms1)
	if nPipe > 0 {
		iso.pipelineAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(nPipe)
	}
	iso.graphwalkNS = fastestPass(func() int {
		n := 0
		for i := range items {
			if rt := routers[items[i].mod]; rt != nil {
				scratch = items[i].pk
				_ = rt.Inject(ctx, 0, &scratch)
				n++
			}
		}
		return n
	})
	return iso, nil
}
