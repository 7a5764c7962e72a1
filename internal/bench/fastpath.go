// Fast-path benchmark: before/after numbers for the three PR-3
// optimizations — admission-verdict caching in the controller,
// flow-hash sharding in the vswitch, and batched packet delivery in
// the dataplane. The rows are real measurements on this machine; the
// JSON form (FastPathJSON) is what CI archives as BENCH_pr3.json.
package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/dataplane"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/topology"
	"github.com/in-net/innet/internal/vswitch"
)

// BenchFormat is the schema identifier every innet-bench JSON report
// carries in its "format" field, so downstream tooling can detect
// incompatible report layouts (see docs/FORMATS.md §8).
const BenchFormat = "innet-bench/1"

// FastPathResult is the machine-readable form of the fast-path
// benchmark (serialized to BENCH_pr3.json by innet-bench -json).
type FastPathResult struct {
	Format string `json:"format"`

	// Admission: deploy+kill cycles of an identical module, cold
	// (cache disabled) vs warm (cache enabled, steady state).
	AdmissionColdOpsPerSec float64 `json:"admission_cold_ops_per_sec"`
	AdmissionWarmOpsPerSec float64 `json:"admission_warm_ops_per_sec"`
	AdmissionSpeedup       float64 `json:"admission_speedup"`
	CacheHits              uint64  `json:"cache_hits"`
	CacheMisses            uint64  `json:"cache_misses"`

	// Dispatch: concurrent senders on one switch, 1 shard (the old
	// single dispatch lock) vs Shards shards.
	DispatchGoroutines   int     `json:"dispatch_goroutines"`
	DispatchShards       int     `json:"dispatch_shards"`
	Dispatch1ShardPPS    float64 `json:"dispatch_1shard_pps"`
	DispatchShardedPPS   float64 `json:"dispatch_sharded_pps"`
	DispatchSpeedup      float64 `json:"dispatch_speedup"`
	DispatchBatchPPS     float64 `json:"dispatch_batch_pps"`
	DispatchBatchSpeedup float64 `json:"dispatch_batch_speedup"`
	// Affine: each sender's flows hash to its own shard (RSS-style
	// flow steering — the deployment the sharding targets).
	DispatchAffinePPS     float64 `json:"dispatch_affine_pps"`
	DispatchAffineSpeedup float64 `json:"dispatch_affine_speedup"`

	// Dataplane: producer/consumer handoff per packet vs per batch.
	BatchSize           int     `json:"batch_size"`
	DataplanePerPktPPS  float64 `json:"dataplane_per_packet_pps"`
	DataplaneBatchedPPS float64 `json:"dataplane_batched_pps"`
	DataplaneSpeedup    float64 `json:"dataplane_speedup"`

	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

const fastPathModule = `
FromNetfront() ->
IPFilter(allow udp port 1500) ->
IPRewriter(pattern - - 10.1.15.133 - 0 0)
-> TimedUnqueue(120,100)
-> dst::ToNetfront()
`

const fastPathReqs = `
reach from internet udp
-> Batcher:dst:0 dst 10.1.15.133
-> client dst port 1500
const proto && dst port && payload
`

// measureAdmission times deploy+kill cycles of one identical module.
func measureAdmission(cached bool, cycles int) (float64, symexec.CacheStats) {
	topo, err := topology.PaperFig3()
	if err != nil {
		panic(err)
	}
	opts := controller.Options{AdmissionCache: -1}
	if cached {
		opts.AdmissionCache = 0 // default capacity
	}
	c, err := controller.NewWithOptions(topo, "reach from internet tcp src port 80 -> HTTPOptimizer -> client", opts)
	if err != nil {
		panic(err)
	}
	req := controller.Request{
		Tenant:       "bench",
		ModuleName:   "Batcher",
		Config:       fastPathModule,
		Requirements: fastPathReqs,
		Trust:        security.Client,
	}
	// One untimed cycle warms code paths (and, when caching, the
	// cache: every later cycle is the steady re-deploy state).
	dep, err := c.Deploy(req)
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
	elapsed := time.Since(start)
	return float64(cycles) / elapsed.Seconds(), c.CacheStats()
}

// measureDispatch hammers one switch from g goroutines, each goroutine
// owning distinct flows, and returns packets/sec. With affine, each
// sender's flows are chosen to land on "its" shard (sender w mod
// shards), modelling RSS-style flow steering where a core receives
// the flows that hash to its queue; otherwise each sender's flows
// spread across all shards.
func measureDispatch(shards, g, perG int, affine bool) float64 {
	s := vswitch.NewSharded(shards)
	mod := packet.MustParseIP("198.51.100.10")
	s.Install(vswitch.Rule{Priority: 10, Match: vswitch.Match{DstIP: mod}, Action: vswitch.ActToModule, Module: mod})
	s.ToModule = func(uint32, *packet.Packet) {}
	flows := func(w int) []*packet.Packet {
		pkts := make([]*packet.Packet, 0, 16)
		for port := 1024 + w; len(pkts) < cap(pkts); port++ {
			p := &packet.Packet{
				Protocol: packet.ProtoUDP,
				SrcIP:    packet.MustParseIP("8.8.8.8"),
				DstIP:    mod,
				SrcPort:  uint16(port),
				DstPort:  1500, TTL: 64,
			}
			if affine && s.ShardOf(p.Tuple()) != w%s.Shards() {
				continue
			}
			pkts = append(pkts, p)
		}
		return pkts
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pkts := flows(w)
			for i := 0; i < perG; i++ {
				s.Process(pkts[i%len(pkts)])
			}
		}(w)
	}
	wg.Wait()
	return float64(g*perG) / time.Since(start).Seconds()
}

// measureDispatchBatch is measureDispatch with per-batch table locking
// (ProcessBatch) instead of per-packet Process.
func measureDispatchBatch(shards, g, perG, batch int) float64 {
	s := vswitch.NewSharded(shards)
	mod := packet.MustParseIP("198.51.100.10")
	s.Install(vswitch.Rule{Priority: 10, Match: vswitch.Match{DstIP: mod}, Action: vswitch.ActToModule, Module: mod})
	s.ToModule = func(uint32, *packet.Packet) {}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pkts := make([]*packet.Packet, batch)
			for i := range pkts {
				pkts[i] = &packet.Packet{
					Protocol: packet.ProtoUDP,
					SrcIP:    packet.MustParseIP("8.8.8.8"),
					DstIP:    mod,
					SrcPort:  uint16(1000 + w*batch + i%16),
					DstPort:  1500, TTL: 64,
				}
			}
			// Bursts arrive shard-grouped (per-queue NIC bursts), so
			// ProcessBatch holds each shard lock once per run.
			sort.SliceStable(pkts, func(i, j int) bool {
				return s.ShardOf(pkts[i].Tuple()) < s.ShardOf(pkts[j].Tuple())
			})
			for done := 0; done < perG; done += batch {
				s.ProcessBatch(pkts)
			}
		}(w)
	}
	wg.Wait()
	return float64(g*perG) / time.Since(start).Seconds()
}

// FastPathMeasure runs all three experiments. quick shrinks the
// iteration counts for CI; batch is the dataplane burst size (0 =
// dataplane.DefaultBatchSize).
func FastPathMeasure(quick bool, batch int) *FastPathResult {
	if batch <= 0 {
		batch = dataplane.DefaultBatchSize
	}
	cycles, pkts, trials := 400, 2_000_000, 3
	if quick {
		cycles, pkts, trials = 120, 500_000, 2
	}

	r := &FastPathResult{
		Format:             BenchFormat,
		BatchSize:          batch,
		DispatchGoroutines: 4,
		DispatchShards:     vswitch.DefaultShards,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
	}

	cold, _ := measureAdmission(false, cycles)
	warm, stats := measureAdmission(true, cycles)
	r.AdmissionColdOpsPerSec, r.AdmissionWarmOpsPerSec = cold, warm
	r.AdmissionSpeedup = warm / cold
	r.CacheHits, r.CacheMisses = stats.Hits, stats.Misses

	// The dispatch configurations are measured PAIRED: one trial runs
	// all four back to back and the trial with the highest aggregate
	// throughput — the one least perturbed by background load — supplies
	// every dispatch figure. Independent best-of per configuration lets
	// a noisy phase land on one side of the ratio only, which on a
	// shared box swings the speedup by ±20%.
	perG := pkts / r.DispatchGoroutines
	type dispatchTrial struct{ one, sharded, affine, batch float64 }
	var bestTrial dispatchTrial
	for i := 0; i < trials; i++ {
		tr := dispatchTrial{
			one:     measureDispatch(1, r.DispatchGoroutines, perG, false),
			sharded: measureDispatch(r.DispatchShards, r.DispatchGoroutines, perG, false),
			affine:  measureDispatch(r.DispatchShards, r.DispatchGoroutines, perG, true),
			batch:   measureDispatchBatch(r.DispatchShards, r.DispatchGoroutines, perG, batch),
		}
		if tr.one+tr.sharded+tr.affine+tr.batch > bestTrial.one+bestTrial.sharded+bestTrial.affine+bestTrial.batch {
			bestTrial = tr
		}
	}
	r.Dispatch1ShardPPS = bestTrial.one
	r.DispatchShardedPPS = bestTrial.sharded
	r.DispatchSpeedup = r.DispatchShardedPPS / r.Dispatch1ShardPPS
	r.DispatchAffinePPS = bestTrial.affine
	r.DispatchAffineSpeedup = r.DispatchAffinePPS / r.Dispatch1ShardPPS
	r.DispatchBatchPPS = bestTrial.batch
	r.DispatchBatchSpeedup = r.DispatchBatchPPS / r.Dispatch1ShardPPS

	run, err := dataplane.NewRunnerString(`FromNetfront() -> CheckIPHeader() -> ToNetfront()`)
	if err != nil {
		panic(err)
	}
	tmpl := dataplane.UDPTemplate(64)
	r.DataplanePerPktPPS = run.MeasureBatchedBest(tmpl, pkts, 1, trials).PPS
	r.DataplaneBatchedPPS = run.MeasureBatchedBest(tmpl, pkts, batch, trials).PPS
	r.DataplaneSpeedup = r.DataplaneBatchedPPS / r.DataplanePerPktPPS
	return r
}

// FastPath measures and renders the fast-path benchmark.
func FastPath(quick bool, batch int) *Table {
	return FastPathTable(FastPathMeasure(quick, batch))
}

// FastPathTable renders an already-measured result as a table.
func FastPathTable(r *FastPathResult) *Table {
	t := &Table{
		ID:      "PR3",
		Title:   "fast-path admission & dispatch (cached symexec, sharded vswitch, batched dataplane)",
		Columns: []string{"experiment", "before", "after", "speedup"},
	}
	t.AddRow("admission deploy+kill (ops/s)", f1(r.AdmissionColdOpsPerSec), f1(r.AdmissionWarmOpsPerSec), f2(r.AdmissionSpeedup)+"x")
	t.AddRow(fmt.Sprintf("dispatch %dg (Mpps)", r.DispatchGoroutines), f2(r.Dispatch1ShardPPS/1e6), f2(r.DispatchShardedPPS/1e6), f2(r.DispatchSpeedup)+"x")
	t.AddRow(fmt.Sprintf("dispatch %dg affine (Mpps)", r.DispatchGoroutines), f2(r.Dispatch1ShardPPS/1e6), f2(r.DispatchAffinePPS/1e6), f2(r.DispatchAffineSpeedup)+"x")
	t.AddRow(fmt.Sprintf("dispatch %dg batch=%d (Mpps)", r.DispatchGoroutines, r.BatchSize), f2(r.Dispatch1ShardPPS/1e6), f2(r.DispatchBatchPPS/1e6), f2(r.DispatchBatchSpeedup)+"x")
	t.AddRow(fmt.Sprintf("dataplane batch=%d (Mpps)", r.BatchSize), f2(r.DataplanePerPktPPS/1e6), f2(r.DataplaneBatchedPPS/1e6), f2(r.DataplaneSpeedup)+"x")
	t.Notes = append(t.Notes,
		fmt.Sprintf("admission cache: %d hits / %d misses over the warm run", r.CacheHits, r.CacheMisses),
		fmt.Sprintf("%d shards, %d senders, GOMAXPROCS=%d, NumCPU=%d", r.DispatchShards, r.DispatchGoroutines, r.GOMAXPROCS, r.NumCPU),
		"before = cache disabled / 1 shard / per-packet handoff; after = defaults")
	return t
}

// JSON renders the result as the BENCH_pr3.json payload.
func (r *FastPathResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
