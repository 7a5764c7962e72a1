package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// childResult is one workload run made in a fresh process.
type childResult struct {
	resultLine
	detail
}

// runner runs one workload and returns what it reported.
type runner func(o options, workload string, seed int64, seconds float64, trace bool) (*childResult, error)

// runInProcess runs the workload in this process (the smoke run, where
// isolation between workloads does not matter).
func runInProcess(o options, workload string, seed int64, seconds float64, trace bool) (*childResult, error) {
	o.workload, o.seed, o.seconds, o.trace = workload, seed, seconds, trace
	out, err := runWorkload(o)
	if err != nil {
		return nil, err
	}
	return &childResult{out.result(), out.detail}, nil
}

// runChild re-executes this binary for one workload so that heap
// state, allocation counts and peak RSS of one workload never leak
// into the next.
func runChild(o options, workload string, seed int64, seconds float64, trace bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", o.outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	res := &childResult{}
	if len(lines) == 0 || json.Unmarshal([]byte(lines[len(lines)-1]), &res.resultLine) != nil {
		return nil, fmt.Errorf("%s: no result (%v): %s", workload, runErr, strings.TrimSpace(stderr.String()))
	}
	for _, l := range lines {
		if strings.HasPrefix(l, detailPrefix) {
			_ = json.Unmarshal([]byte(strings.TrimPrefix(l, detailPrefix)), &res.detail)
		}
	}
	return res, nil
}

// headline names the latency metric the budget and the tracing
// overhead are taken against, traced and untraced.
const untracedHeadline = "latency_p50_us"

// runReport is `go run ./benchmark`: every workload untraced, then a
// shorter traced run for the per-layer numbers, the budget table and
// the tracing overhead. It reports whether every output was correct.
func runReport(o options, run runner, w io.Writer) (bool, error) {
	tracedSeconds := o.seconds / 2
	if tracedSeconds < 1 {
		tracedSeconds = o.seconds
	}
	allCorrect := true
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n=== %s — %s\n", wl.Name, wl.Why)
		un, err := run(o, wl.Name, o.seed, o.seconds, false)
		if err != nil {
			return false, err
		}
		for _, n := range un.Notes {
			fmt.Fprintf(w, "    %-26s %s\n", n[0], n[1])
		}
		fmt.Fprintf(w, "  end-to-end, tracing off (%gs): correct=%v attempted=%d failed=%d\n", o.seconds, un.Correct, un.Attempted, un.Failed)
		fmt.Fprintf(w, "    %-18s %16s %-6s %-7s %s\n", "metric", "value", "unit", "better", "bound")
		for _, d := range endToEnd {
			fmt.Fprintf(w, "    %-18s %16.4f %-6s %-7s %.0f%%\n", d.Name, un.Metrics[d.Name].Value, d.Unit, d.Better, d.Bound*100)
		}
		allCorrect = allCorrect && un.Correct

		tr, err := run(o, wl.Name, o.seed, tracedSeconds, true)
		if err != nil {
			return false, err
		}
		allCorrect = allCorrect && tr.Correct
		fmt.Fprintf(w, "  per layer, traced run (%gs): correct=%v\n", tracedSeconds, tr.Correct)
		for _, d := range perLayer {
			if v := tr.Metrics[d.Name].Value; v != 0 {
				fmt.Fprintf(w, "    %-34s %16.4f %-6s %s\n", d.Name, v, d.Unit, d.Better)
			}
		}
		untraced := un.Metrics[untracedHeadline].Value
		traced := tr.Metrics[tr.BudgetHeadline].Value
		if strings.HasSuffix(tr.BudgetHeadline, "_ms") {
			untraced /= 1e3
		}
		fmt.Fprintf(w, "  budget (%s) against the untraced %s = %.3f\n", tr.BudgetUnit, untracedHeadline, untraced)
		for _, r := range tr.Budget {
			fmt.Fprintf(w, "    %-58s %10.3f  %5.1f%%\n", r.Layer, r.Value, 100*r.Value/untraced)
		}
		fmt.Fprintf(w, "    %-58s %10.3f  %5.1f%%\n", "sum of layer self-times", tr.BudgetSum, 100*tr.BudgetSum/untraced)
		fmt.Fprintf(w, "    %-58s %10.3f  %5.1f%%\n", "unexplained remainder", untraced-tr.BudgetSum, 100*(untraced-tr.BudgetSum)/untraced)
		if untraced > 0 {
			fmt.Fprintf(w, "  trace_overhead_pct = %.1f (traced %s %.3f vs untraced %.3f)\n",
				100*(traced-untraced)/untraced, tr.BudgetHeadline, traced, untraced)
		}
		fmt.Fprintf(w, "  spans: %s\n", o.tracePath(wl.Name))
	}
	if !allCorrect {
		fmt.Fprintln(w, "\nFAIL: at least one output differed from the reference")
	}
	return allCorrect, nil
}

// runAA measures the same binary twice: two sets of o.aa runs per
// workload, interleaved (A, B, A, B, …) and each with its own seed, and
// checks every end-to-end metric the way the driver will: the spread
// inside a set and the shift between the sets, both against the bound.
func runAA(o options, w io.Writer) error {
	fmt.Fprintf(w, "A/A: 2 sets x %d interleaved runs per workload, %gs each, seeds from %d\n", o.aa, o.seconds, o.seed)
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %8s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "shift", "bound", "verdict")
	failed := false
	for _, wl := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for k := 0; k < o.aa; k++ {
			for s := 0; s < 2; s++ {
				res, err := runChild(o, wl.Name, o.seed+int64(2*k+s), o.seconds, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: incorrect output in A/A run", wl.Name)
				}
				for _, d := range endToEnd {
					sets[s][d.Name] = append(sets[s][d.Name], res.Metrics[d.Name].Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			shift := (mb - ma) / ma
			if d.Better == "higher" {
				shift = -shift
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "PASS"
			// setup_s is judged on the shift alone, as the driver does.
			if shift > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict, failed = "FAIL", true
			}
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %7.2f%% %7.2f%% %+7.2f%% %6.0f%%  %s\n",
				wl.Name, d.Name, ma, mb, sa*100, sb*100, shift*100, d.Bound*100, verdict)
		}
	}
	if failed {
		return fmt.Errorf("A/A check failed: the benchmark does not repeat within its own bounds")
	}
	return nil
}
