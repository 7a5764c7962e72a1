// Command benchmark is the repository's end-to-end benchmark: it
// drives the packet path (vswitch → platform → netsim → pipeline → Tx)
// and the deploy path (HTTP → controller admission → journal fsync →
// quorum ack) with seeded inputs, checks every output against a
// reference, and reports a handful of end-to-end metrics plus, from a
// separate traced run, a per-layer budget. See README.md.
//
//	go run ./benchmark                    all workloads, untraced then traced, with the budget tables
//	go run ./benchmark -workload NAME     one workload; last stdout line is the result as JSON
//	go run ./benchmark -smoke             every workload for one second (what `go test` drives)
//	go run ./benchmark -aa 3              two interleaved sets of 3 full runs, PASS/FAIL per bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	aa       int
	outDir   string
	// wrongExpectation corrupts one reference expectation (self-test of
	// the output check).
	wrongExpectation bool
}

// setupRepeats is how many times a workload sets itself up (setup_s is
// the median); the smoke run sets up once to stay quick.
func (o options) setupRepeats() int {
	if o.smoke {
		return 1
	}
	return 5
}

func (o options) tracePath(workload string) string {
	return filepath.Join(o.outDir, "trace-"+workload+".jsonl")
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain is main with its environment passed in, so tests can drive
// the command and read its exit code: 0 every output correct, 1 an
// output differed from the reference, 2 the run itself failed.
func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), " | "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the input generators")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.BoolVar(&o.smoke, "smoke", false, "every workload for one second in this process, traced and untraced, one set-up each; checks correctness, asserts no bound")
	fs.IntVar(&o.aa, "aa", 0, "A/A check: two interleaved sets of this many full runs of the same binary")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for journals and trace files")
	fs.BoolVar(&o.wrongExpectation, "wrong-expectation", false, "self-test: corrupt one reference expectation; the run must then report failures and exit 1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fail(err)
	}
	switch {
	case o.workload != "":
		out, err := runWorkload(o)
		if err != nil {
			return fail(err)
		}
		out.print(stdout)
		if !out.correct() {
			return 1
		}
	case o.aa > 0:
		if err := runAA(o, stdout); err != nil {
			return fail(err)
		}
	default:
		run := runChild
		if o.smoke {
			o.seconds, run = 1, runInProcess
		}
		ok, err := runReport(o, run, stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*outcome, error) {
	switch o.workload {
	case "pkt-forward":
		return runPkt(o.workload, pktForwardParams, o)
	case "pkt-tenants":
		return runPkt(o.workload, pktTenantsParams, o)
	case "deploy-cold":
		return runDeploy(o.workload, false, o)
	case "deploy-warm":
		return runDeploy(o.workload, true, o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// budgetRow is one line of the per-layer budget table.
type budgetRow struct {
	Layer string  `json:"layer"`
	Value float64 `json:"value"`
}

// outcome is what one workload run produced. The contract's result
// line carries Correct/Attempted/Failed/Metrics; the rest travels on a
// "# detail" line for the full report.
type outcome struct {
	traced    bool
	attempted int64
	failed    int64
	metrics   map[string]metricValue
	detail
}

func newOutcome(workload string, o options) *outcome {
	out := &outcome{traced: o.trace, metrics: make(map[string]metricValue)}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	// Every metric of the run's kind is present; one that does not
	// apply to this workload keeps the value 0.
	for _, d := range defs {
		out.metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	out.info("workload", workload)
	out.info("seed", fmt.Sprint(o.seed))
	out.info("seconds", fmt.Sprint(o.seconds))
	out.info("host", fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH))
	return out
}

func (out *outcome) info(k, v string) { out.Notes = append(out.Notes, [2]string{k, v}) }

func (out *outcome) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			out.metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in spec.go")
}

// e2e records an end-to-end metric (ignored on a traced run, whose
// result line carries the per-layer metrics only).
func (out *outcome) e2e(name string, v float64) {
	if !out.traced {
		out.set(endToEnd, name, v)
	}
}

// layer records a per-layer metric.
func (out *outcome) layer(name string, v float64) { out.set(perLayer, name, v) }

func (out *outcome) correct() bool { return out.failed == 0 && out.attempted > 0 }

func (out *outcome) result() resultLine {
	return resultLine{out.correct(), out.attempted, out.failed, out.metrics}
}

// detail is the second-to-last stdout line of a child run.
type detail struct {
	Notes          [][2]string `json:"notes"`
	Budget         []budgetRow `json:"budget,omitempty"`
	BudgetSum      float64     `json:"budget_sum,omitempty"`
	BudgetUnit     string      `json:"budget_unit,omitempty"`
	BudgetHeadline string      `json:"budget_headline,omitempty"`
}

// resultLine is the contract's last stdout line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const detailPrefix = "# detail "

func (out *outcome) print(w io.Writer) {
	for _, n := range out.Notes {
		fmt.Fprintf(w, "# %s: %s\n", n[0], n[1])
	}
	d, _ := json.Marshal(out.detail)
	fmt.Fprintf(w, "%s%s\n", detailPrefix, d)
	r, _ := json.Marshal(out.result())
	fmt.Fprintf(w, "%s\n", r)
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
