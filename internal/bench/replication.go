// Replication failover benchmark: how long clients lose write
// service when the leader dies. The clock starts at the kill and
// stops at the first successful admission on the promoted standby —
// so the figure covers silence detection (FailoverAfter), the term
// bump, and the first full admission pipeline run on the survivor.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/faults"
	"github.com/in-net/innet/internal/security"
)

// ReplicationResult holds the failover benchmark's measurements.
type ReplicationResult struct {
	// Pair configuration the trials ran under.
	HeartbeatEveryMs float64
	AckTimeoutMs     float64
	WarmDeploys      int

	// Failover time per trial: leader kill -> first successful
	// admission on the promoted standby.
	Trials           int
	FailoverMs       []float64
	FailoverMsMin    float64
	FailoverMsMedian float64
	FailoverMsMax    float64
	// DetectionFloorMs is the configured silence threshold — the part
	// of every failover no implementation speedup can remove.
	DetectionFloorMs float64

	// Quorum failover: the same kill, but on a 3-replica group where
	// the survivors must ELECT a successor (majority vote) before one
	// of them can admit. The delta over the pair figure is the cost of
	// the vote round.
	QuorumFailoverMs       []float64
	QuorumFailoverMsMin    float64
	QuorumFailoverMsMedian float64
	QuorumFailoverMsMax    float64

	GOMAXPROCS int
}

const replBenchModule = `
in :: FromNetfront();
f :: IPFilter(allow udp);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`

func replBenchRequest(i int) controller.Request {
	return controller.Request{
		Tenant:     fmt.Sprintf("bench%d", i),
		ModuleName: fmt.Sprintf("failover%d", i),
		Config:     replBenchModule,
		Trust:      security.ThirdParty,
	}
}

// measureFailoverOnce boots a fresh group of n replicas (n = 2 is the
// leader/standby pair, n = 3 elects a successor by majority vote),
// warms it with real deployments, kills the leader and polls every
// survivor with the next deployment until one admits it. Returns
// kill-to-admission: detection, any vote round, and the first
// admission, end to end.
func measureFailoverOnce(opts faults.ReplGroupOptions, n, warm int) (time.Duration, error) {
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", fmt.Sprintf("innet-bench-repl%d-", i))
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		opts.Dirs = append(opts.Dirs, dir)
	}
	g, err := faults.NewReplGroup(opts)
	if err != nil {
		return 0, err
	}
	defer g.Close()

	// Warm deployments replicate synchronously, so by the kill a
	// successor holds every one of them as a fully-admitted warm
	// replica — the deployment the paper's failover story depends on.
	for i := 0; i < warm; i++ {
		if _, err := g.Nodes[0].Ctl.Deploy(replBenchRequest(i)); err != nil {
			return 0, fmt.Errorf("warm deploy %d: %w", i, err)
		}
	}

	kill := time.Now()
	g.Crash(0)
	req := replBenchRequest(warm)
	deadline := kill.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, node := range g.Nodes[1:] {
			if _, err := node.Ctl.Deploy(req); err == nil {
				return time.Since(kill), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("no survivor admitted a deploy within 30s of the kill")
}

// ReplicationMeasure runs the failover trials. Each trial gets a
// fresh group (a leader kill is not repeatable within one).
func ReplicationMeasure(quick bool) *ReplicationResult {
	trials, warm := 5, 3
	if quick {
		trials, warm = 3, 2
	}
	opts := faults.ReplGroupOptions{
		AckTimeout:      500 * time.Millisecond,
		FailoverAfter:   150 * time.Millisecond,
		ElectionTimeout: 200 * time.Millisecond,
		HeartbeatEvery:  20 * time.Millisecond,
		RedialEvery:     10 * time.Millisecond,
	}
	r := &ReplicationResult{
		HeartbeatEveryMs: float64(opts.HeartbeatEvery) / float64(time.Millisecond),
		AckTimeoutMs:     float64(opts.AckTimeout) / float64(time.Millisecond),
		WarmDeploys:      warm,
		Trials:           trials,
		DetectionFloorMs: float64(opts.FailoverAfter) / float64(time.Millisecond),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
	}
	for i := 0; i < trials; i++ {
		d, err := measureFailoverOnce(opts, 2, warm)
		if err != nil {
			panic(fmt.Sprintf("replication bench trial %d: %v", i, err))
		}
		r.FailoverMs = append(r.FailoverMs, float64(d)/float64(time.Millisecond))
	}
	sorted := append([]float64(nil), r.FailoverMs...)
	sort.Float64s(sorted)
	r.FailoverMsMin = sorted[0]
	r.FailoverMsMedian = sorted[len(sorted)/2]
	r.FailoverMsMax = sorted[len(sorted)-1]

	for i := 0; i < trials; i++ {
		d, err := measureFailoverOnce(opts, 3, warm)
		if err != nil {
			panic(fmt.Sprintf("quorum failover bench trial %d: %v", i, err))
		}
		r.QuorumFailoverMs = append(r.QuorumFailoverMs, float64(d)/float64(time.Millisecond))
	}
	sorted = append([]float64(nil), r.QuorumFailoverMs...)
	sort.Float64s(sorted)
	r.QuorumFailoverMsMin = sorted[0]
	r.QuorumFailoverMsMedian = sorted[len(sorted)/2]
	r.QuorumFailoverMsMax = sorted[len(sorted)-1]
	return r
}

// ReplicationTable renders an already-measured result as a table.
func ReplicationTable(r *ReplicationResult) *Table {
	t := &Table{
		ID:      "REPLICATION",
		Title:   "replication failover (leader kill -> first standby admission)",
		Columns: []string{"metric", "ms"},
	}
	t.AddRow("failover min", f1(r.FailoverMsMin))
	t.AddRow("failover median", f1(r.FailoverMsMedian))
	t.AddRow("failover max", f1(r.FailoverMsMax))
	t.AddRow("detection floor (FailoverAfter)", f1(r.DetectionFloorMs))
	if len(r.QuorumFailoverMs) > 0 {
		t.AddRow("3-node elected failover min", f1(r.QuorumFailoverMsMin))
		t.AddRow("3-node elected failover median", f1(r.QuorumFailoverMsMedian))
		t.AddRow("3-node elected failover max", f1(r.QuorumFailoverMsMax))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d trials, fresh pair each; %d warm deployments replicated before the kill", r.Trials, r.WarmDeploys),
		fmt.Sprintf("heartbeat %.0fms, ack timeout %.0fms, GOMAXPROCS=%d", r.HeartbeatEveryMs, r.AckTimeoutMs, r.GOMAXPROCS),
		"median - floor is the promotion + first-admission cost on this machine",
		"3-node rows add a majority vote round (election) to the same kill")
	return t
}
