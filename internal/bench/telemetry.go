// Telemetry overhead benchmark: the observability PR's acceptance
// bar is that instrumenting the fast path costs ≤5% dispatch
// throughput. Dispatch counters are atomics the switch maintains
// anyway, and registry metrics are read by callback at scrape time,
// so the honest "enabled" configuration is a registry attached AND a
// scraper rendering the exposition continuously while the senders
// run — the steady state of an operator polling /v1/metrics, tighter
// than any real scrape interval.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/pipeline"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/topology"
	"github.com/in-net/innet/internal/vswitch"
)

// benchScrapeInterval is how often the enabled-side scraper renders
// the full exposition — far more aggressive than the 10-15s a real
// Prometheus would use.
const benchScrapeInterval = 5 * time.Millisecond

// TelemetryResult is the machine-readable form of the telemetry
// overhead benchmark.
type TelemetryResult struct {
	Format string `json:"format"`

	// Dispatch throughput with no registry vs with a registry attached
	// and a scraper rendering the exposition every 5ms.
	DispatchGoroutines  int     `json:"dispatch_goroutines"`
	DispatchShards      int     `json:"dispatch_shards"`
	DispatchDisabledPPS float64 `json:"dispatch_disabled_pps"`
	DispatchEnabledPPS  float64 `json:"dispatch_enabled_pps"`
	// DispatchOverheadPct is (disabled-enabled)/disabled*100; negative
	// means the enabled run happened to measure faster (noise floor).
	DispatchOverheadPct float64 `json:"dispatch_overhead_pct"`
	Scrapes             uint64  `json:"scrapes"`

	// Admission deploy+kill throughput without vs with stage
	// histograms and the span tracer attached.
	AdmissionDisabledOpsPerSec float64 `json:"admission_disabled_ops_per_sec"`
	AdmissionEnabledOpsPerSec  float64 `json:"admission_enabled_ops_per_sec"`
	AdmissionOverheadPct       float64 `json:"admission_overhead_pct"`

	// Compiled-pipeline dispatch with flow-sampled path tracing dark
	// vs armed at the default 1-in-N rate, burst heads rotated through
	// all flows so the sampler fires at its steady-state frequency.
	// The acceptance bar is ≤5% overhead.
	PathTraceEvery       int     `json:"pathtrace_every"`
	PathTraceBatch       int     `json:"pathtrace_batch"`
	PathTraceDisabledPPS float64 `json:"pathtrace_disabled_pps"`
	PathTraceEnabledPPS  float64 `json:"pathtrace_enabled_pps"`
	PathTraceOverheadPct float64 `json:"pathtrace_overhead_pct"`
	// PathTraces counts complete traces the armed side committed.
	PathTraces uint64 `json:"pathtraces"`

	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// measureDispatchTelemetry is measureDispatch with an optional
// registry + continuous scraper attached. Returns the elapsed send
// time and the number of exposition renders that ran during it.
func measureDispatchTelemetry(shards, g, perG int, enabled bool) (time.Duration, uint64) {
	s := vswitch.NewSharded(shards)
	mod := packet.MustParseIP("198.51.100.10")
	s.Install(vswitch.Rule{Priority: 10, Match: vswitch.Match{DstIP: mod}, Action: vswitch.ActToModule, Module: mod})
	s.ToModule = func(uint32, *packet.Packet) {}

	var scrapes atomic.Uint64
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	if enabled {
		reg := telemetry.New()
		s.RegisterMetrics(reg, "platform", "bench")
		scraper.Add(1)
		go func() {
			defer scraper.Done()
			tick := time.NewTicker(benchScrapeInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = reg.WritePrometheus(io.Discard)
					scrapes.Add(1)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pkts := make([]*packet.Packet, 16)
			for i := range pkts {
				pkts[i] = &packet.Packet{
					Protocol: packet.ProtoUDP,
					SrcIP:    packet.MustParseIP("8.8.8.8"),
					DstIP:    mod,
					SrcPort:  uint16(1024 + w*16 + i),
					DstPort:  1500, TTL: 64,
				}
			}
			for i := 0; i < perG; i++ {
				s.Process(pkts[i%len(pkts)])
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	scraper.Wait()
	return elapsed, scrapes.Load()
}

// measureAdmissionTelemetry times deploy+kill cycles with or without
// the stage histograms and span tracer attached. The cache is
// disabled so every cycle pays the full pipeline the stages wrap.
func measureAdmissionTelemetry(enabled bool, cycles int) float64 {
	topo, err := topology.PaperFig3()
	if err != nil {
		panic(err)
	}
	c, err := controller.NewWithOptions(topo,
		"reach from internet tcp src port 80 -> HTTPOptimizer -> client",
		controller.Options{AdmissionCache: -1})
	if err != nil {
		panic(err)
	}
	if enabled {
		c.AttachTelemetry(telemetry.New(), telemetry.NewTracer(telemetry.DefaultTraceRing))
	}
	req := controller.Request{
		Tenant:       "bench",
		ModuleName:   "Batcher",
		Config:       fastPathModule,
		Requirements: fastPathReqs,
		Trust:        security.Client,
	}
	dep, err := c.Deploy(req) // untimed warm-up cycle
	if err != nil {
		panic(err)
	}
	if err := c.Kill(dep.ID); err != nil {
		panic(err)
	}
	start := time.Now()
	for i := 0; i < cycles; i++ {
		dep, err := c.Deploy(req)
		if err != nil {
			panic(err)
		}
		if err := c.Kill(dep.ID); err != nil {
			panic(err)
		}
	}
	return float64(cycles) / time.Since(start).Seconds()
}

// pipelineBenchConfig is the chain the path-trace pair measures: header
// validation, marking, TTL, accounting — the common middlebox prefix.
// The per-element work is deliberately cheap so the tracer's cost is
// not hidden behind element internals.
const pipelineBenchConfig = `
in :: FromNetfront();
chk :: CheckIPHeader;
pnt :: Paint(7);
ttl :: DecIPTTL;
cnt :: Counter;
out :: ToNetfront();
d :: Discard;
in -> chk -> pnt -> ttl -> cnt -> out;
chk[1] -> d;
ttl[1] -> d;
`

// pipelineFlows builds nflows pre-stamped measurement packets.
func pipelineFlows(nflows int) []*packet.Packet {
	pkts := make([]*packet.Packet, nflows)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			Protocol: packet.ProtoUDP,
			SrcIP:    packet.MustParseIP("8.8.8.8") + uint32(i),
			DstIP:    packet.MustParseIP("198.51.100.10"),
			SrcPort:  uint16(1024 + i),
			DstPort:  1500, TTL: 255,
			Payload: make([]byte, 36),
		}
	}
	return pkts
}

// resetTTLs restores the field the chain mutates, so every
// measurement round sees identical packets.
func resetTTLs(pkts []*packet.Packet) {
	for _, p := range pkts {
		p.TTL = 255
	}
}

// measurePipelinePathTrace pushes n pre-stamped packets through the
// compiled Exec in bursts of batch, optionally with flow-sampled path
// tracing armed at the default rate. The burst window slides through a doubled flow slice
// so every flow takes the head slot in turn: the armed side pays the
// real steady state (one AffinityHash per burst, and a traced run
// whenever the head flow lands on the 1-in-every residue)
// rather than a fixed head that either always samples or never does.
// Returns the elapsed send time and the number of traces committed.
func measurePipelinePathTrace(n, batch int, enabled bool) (time.Duration, uint64) {
	prog, err := pipeline.CompileConfig(pipelineBenchConfig)
	if err != nil {
		panic(err)
	}
	x := pipeline.NewExec(prog)
	var now int64
	var tx uint64
	x.Now = func() int64 { return now }
	x.Transmit = func(iface int, p *packet.Packet) { tx++ }
	var seq atomic.Uint64
	if enabled {
		x.EnablePathTrace(telemetry.NewPathRing(telemetry.DefaultPathRing, &seq), 0)
	}
	// Far more flows than a burst: with the window sliding one flow per
	// round, an expected nflows/every ≈ 4 flows land on the sampling
	// residue, so the armed side really does traced runs instead of
	// only paying the per-burst hash.
	nflows := 8 * telemetry.DefaultTraceEvery / 2
	pkts := pipelineFlows(nflows)
	all := append(append(make([]*packet.Packet, 0, 2*nflows), pkts...), pkts...)
	rounds := n / batch
	for i := 0; i < 4096/batch+1; i++ {
		w := all[i%nflows : i%nflows+batch]
		resetTTLs(w)
		now += int64(1000 * batch)
		x.Run(0, w)
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		w := all[i%nflows : i%nflows+batch]
		resetTTLs(w)
		now += int64(1000 * batch)
		x.Run(0, w)
	}
	return time.Since(start), seq.Load()
}

// TelemetryMeasure runs the paired overhead experiments. Both sides
// of each pair run back to back within a trial and the trial with the
// highest aggregate throughput supplies the figures (same methodology
// as FastPathMeasure: a noisy phase cannot land on one side of the
// ratio only).
func TelemetryMeasure(quick bool) *TelemetryResult {
	cycles, pkts, trials := 200, 2_000_000, 3
	if quick {
		cycles, pkts, trials = 60, 500_000, 2
	}
	r := &TelemetryResult{
		Format:             BenchFormat,
		DispatchGoroutines: 4,
		DispatchShards:     vswitch.DefaultShards,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
	}
	perG := pkts / r.DispatchGoroutines
	// Untimed warm-up so the first timed round doesn't absorb runtime
	// and allocator warm-up that later rounds skip.
	measureDispatchTelemetry(r.DispatchShards, r.DispatchGoroutines, perG/4, false)
	// The two sides run as many short interleaved rounds rather than
	// one long run each: scheduler and frequency drift then lands on
	// both sides of the ratio instead of whichever ran second.
	const rounds = 8
	perRound := perG / rounds
	type trial struct {
		off, on time.Duration
		scrapes uint64
	}
	var best trial
	for i := 0; i < trials; i++ {
		var cur trial
		for j := 0; j < rounds; j++ {
			off, _ := measureDispatchTelemetry(r.DispatchShards, r.DispatchGoroutines, perRound, false)
			on, scrapes := measureDispatchTelemetry(r.DispatchShards, r.DispatchGoroutines, perRound, true)
			cur.off += off
			cur.on += on
			cur.scrapes += scrapes
		}
		if best.off == 0 || cur.off+cur.on < best.off+best.on {
			best = cur
		}
	}
	sent := float64(r.DispatchGoroutines * perRound * rounds)
	r.DispatchDisabledPPS = sent / best.off.Seconds()
	r.DispatchEnabledPPS = sent / best.on.Seconds()
	r.DispatchOverheadPct = (r.DispatchDisabledPPS - r.DispatchEnabledPPS) / r.DispatchDisabledPPS * 100
	r.Scrapes = best.scrapes

	type admTrial struct{ off, on float64 }
	var bestAdm admTrial
	for i := 0; i < trials; i++ {
		off := measureAdmissionTelemetry(false, cycles)
		on := measureAdmissionTelemetry(true, cycles)
		if off+on > bestAdm.off+bestAdm.on {
			bestAdm = admTrial{off, on}
		}
	}
	r.AdmissionDisabledOpsPerSec, r.AdmissionEnabledOpsPerSec = bestAdm.off, bestAdm.on
	r.AdmissionOverheadPct = (bestAdm.off - bestAdm.on) / bestAdm.off * 100

	// Path-trace pair: same interleaved-round discipline as dispatch so
	// drift lands on both sides of the ratio.
	r.PathTraceEvery = telemetry.DefaultTraceEvery
	r.PathTraceBatch = 32
	ptPer := pkts / rounds
	type ptTrial struct {
		off, on time.Duration
		traces  uint64
	}
	var bestPT ptTrial
	measurePipelinePathTrace(r.PathTraceBatch, r.PathTraceBatch, false) // warm-up
	for i := 0; i < trials; i++ {
		var cur ptTrial
		for j := 0; j < rounds; j++ {
			off, _ := measurePipelinePathTrace(ptPer, r.PathTraceBatch, false)
			on, traces := measurePipelinePathTrace(ptPer, r.PathTraceBatch, true)
			cur.off += off
			cur.on += on
			cur.traces += traces
		}
		if bestPT.off == 0 || cur.off+cur.on < bestPT.off+bestPT.on {
			bestPT = cur
		}
	}
	ptSent := float64((ptPer / r.PathTraceBatch) * r.PathTraceBatch * rounds)
	r.PathTraceDisabledPPS = ptSent / bestPT.off.Seconds()
	r.PathTraceEnabledPPS = ptSent / bestPT.on.Seconds()
	r.PathTraceOverheadPct = (r.PathTraceDisabledPPS - r.PathTraceEnabledPPS) / r.PathTraceDisabledPPS * 100
	r.PathTraces = bestPT.traces
	return r
}

// JSON renders the result for archival next to BENCH_pr3.json.
func (r *TelemetryResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Telemetry measures and renders the telemetry overhead benchmark.
func Telemetry(quick bool) *Table {
	return TelemetryTable(TelemetryMeasure(quick))
}

// TelemetryTable renders an already-measured result as a table.
func TelemetryTable(r *TelemetryResult) *Table {
	t := &Table{
		ID:      "TELEMETRY",
		Title:   "telemetry overhead (registry + continuous scrape vs dark)",
		Columns: []string{"experiment", "disabled", "enabled", "overhead"},
	}
	t.AddRow(fmt.Sprintf("dispatch %dg (Mpps)", r.DispatchGoroutines),
		f2(r.DispatchDisabledPPS/1e6), f2(r.DispatchEnabledPPS/1e6),
		fmt.Sprintf("%.1f%%", r.DispatchOverheadPct))
	t.AddRow("admission deploy+kill (ops/s)",
		f1(r.AdmissionDisabledOpsPerSec), f1(r.AdmissionEnabledOpsPerSec),
		fmt.Sprintf("%.1f%%", r.AdmissionOverheadPct))
	t.AddRow(fmt.Sprintf("pipeline pathtrace 1/%d (Mpps)", r.PathTraceEvery),
		f2(r.PathTraceDisabledPPS/1e6), f2(r.PathTraceEnabledPPS/1e6),
		fmt.Sprintf("%.1f%%", r.PathTraceOverheadPct))
	t.Notes = append(t.Notes,
		fmt.Sprintf("enabled side scraped the full exposition %d times (every %v) during dispatch", r.Scrapes, benchScrapeInterval),
		fmt.Sprintf("%d shards, %d senders, GOMAXPROCS=%d, NumCPU=%d", r.DispatchShards, r.DispatchGoroutines, r.GOMAXPROCS, r.NumCPU),
		"admission side: stage histograms + span tracer attached, cache disabled (full pipeline per cycle)",
		fmt.Sprintf("pathtrace side: compiled Exec, burst %d with rotating head, %d traces committed", r.PathTraceBatch, r.PathTraces))
	return t
}
