// Command innet-bench regenerates the paper's evaluation tables and
// figures (§6, §7.1-7.2, §8) on this repository's substrates and
// prints them as aligned text tables. See EXPERIMENTS.md for the
// paper-vs-measured comparison.
//
//	innet-bench              # full parameter ranges
//	innet-bench -quick       # shrunk sweeps (seconds, not minutes)
//	innet-bench -only fig10  # a single experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/in-net/innet/internal/bench"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "shrink the heavyweight sweeps")
		only    = flag.String("only", "", "run selected experiments (comma-separated): fig5..fig16, table1, mawi, controller, https, fastpath, telemetry, replication, admission")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		batch   = flag.Int("batch", 0, "dataplane batch size for fastpath (0 = default)")
		jsonOut = flag.String("json", "", "also write the fastpath results to this file (BENCH_pr3.json)")
		telOut  = flag.String("telemetry-json", "", "also write the telemetry overhead results to this file")
		replOut = flag.String("replication-json", "", "also write the failover results to this file (BENCH_replication.json)")
		admOut  = flag.String("admission-json", "", "also write the admission-scaling results to this file (BENCH_admission.json)")
		histOut = flag.String("history", "", "append a per-commit entry with this run's headline metrics to this file (BENCH_HISTORY.jsonl)")
		commit  = flag.String("commit", "unknown", "commit id recorded in the -history entry")
		env     = flag.String("env", "local", "environment label recorded in the -history entry (gate compares same-env entries only)")
		gate    = flag.Bool("gate", false, "after any -history append, fail (exit 3) if a gated metric regressed vs the previous same-env entry")
		gateTol = flag.Float64("gate-threshold", 0.15, "relative drop that trips -gate")
	)
	flag.Parse()

	var fastpath *bench.FastPathResult
	var tel *bench.TelemetryResult
	var repl *bench.ReplicationResult
	var adm *bench.AdmissionScalingResult

	runners := map[string]func() *bench.Table{
		"fig5":        func() *bench.Table { return bench.Fig5(*quick) },
		"fig6":        func() *bench.Table { return bench.Fig6(*quick) },
		"fig7":        bench.Fig7,
		"fig8":        bench.Fig8,
		"fig9":        bench.Fig9,
		"fig10":       func() *bench.Table { return bench.Fig10(*quick) },
		"table1":      bench.Table1,
		"fig11":       func() *bench.Table { return bench.Fig11(*quick) },
		"fig12":       bench.Fig12,
		"fig13":       bench.Fig13,
		"fig14":       func() *bench.Table { return bench.Fig14(*quick) },
		"fig15":       func() *bench.Table { return bench.Fig15(*quick) },
		"fig16":       bench.Fig16,
		"mawi":        bench.MAWI,
		"controller":  bench.ControllerLatency,
		"https":       bench.HTTPvsHTTPS,
		"mawi-replay": func() *bench.Table { return bench.MAWIReplay(*quick) },
		"ablation-a":  bench.AblationConsolidation,
		"ablation-b":  bench.AblationSuspendResume,
		"ablation-c":  func() *bench.Table { return bench.AblationSandbox(*quick) },
		"fastpath": func() *bench.Table {
			fastpath = bench.FastPathMeasure(*quick, *batch)
			return bench.FastPathTable(fastpath)
		},
		"telemetry": func() *bench.Table {
			tel = bench.TelemetryMeasure(*quick)
			return bench.TelemetryTable(tel)
		},
		"replication": func() *bench.Table {
			repl = bench.ReplicationMeasure(*quick)
			return bench.ReplicationTable(repl)
		},
		"admission": func() *bench.Table {
			adm = bench.AdmissionScalingMeasure(*quick)
			return bench.AdmissionScalingTable(adm)
		},
	}
	order := []string{
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"mawi", "mawi-replay", "controller", "https",
		"ablation-a", "ablation-b", "ablation-c", "fastpath", "telemetry",
		"replication", "admission",
	}

	writeFile := func(path string, data []byte, err error) {
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "innet-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	writeJSON := func() {
		if *jsonOut != "" {
			if fastpath == nil {
				fastpath = bench.FastPathMeasure(*quick, *batch)
			}
			data, err := fastpath.JSON()
			writeFile(*jsonOut, data, err)
		}
		if *telOut != "" {
			if tel == nil {
				tel = bench.TelemetryMeasure(*quick)
			}
			data, err := tel.JSON()
			writeFile(*telOut, data, err)
		}
		if *replOut != "" {
			if repl == nil {
				repl = bench.ReplicationMeasure(*quick)
			}
			data, err := repl.JSON()
			writeFile(*replOut, data, err)
		}
		if *admOut != "" {
			if adm == nil {
				adm = bench.AdmissionScalingMeasure(*quick)
			}
			data, err := adm.JSON()
			writeFile(*admOut, data, err)
		}
		if *histOut != "" {
			e := bench.NewHistoryEntry(*commit, *env)
			if fastpath != nil {
				e.RecordFastPath(fastpath)
			}
			if len(e.Metrics) == 0 {
				fmt.Fprintln(os.Stderr, "innet-bench: -history set but no gated suite ran (need fastpath)")
				os.Exit(2)
			}
			if err := bench.AppendHistory(*histOut, e); err != nil {
				fmt.Fprintf(os.Stderr, "innet-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "appended %s (commit=%s env=%s, %d metrics)\n", *histOut, *commit, *env, len(e.Metrics))
		}
		if *gate {
			if *histOut == "" {
				fmt.Fprintln(os.Stderr, "innet-bench: -gate requires -history FILE")
				os.Exit(2)
			}
			if err := bench.GateFile(*histOut, *gateTol); err != nil {
				fmt.Fprintf(os.Stderr, "innet-bench: %v\n", err)
				os.Exit(3)
			}
			fmt.Fprintln(os.Stderr, "bench gate: ok")
		}
	}

	if *list {
		fmt.Println(strings.Join(order, "\n"))
		return
	}
	// Standalone gate: no experiments requested, just check the
	// history file (scripts/bench_gate.sh path).
	if *gate && *only == "" && *jsonOut == "" && *telOut == "" &&
		*replOut == "" && *admOut == "" {
		if *histOut == "" {
			fmt.Fprintln(os.Stderr, "innet-bench: -gate requires -history FILE")
			os.Exit(2)
		}
		if err := bench.GateFile(*histOut, *gateTol); err != nil {
			fmt.Fprintf(os.Stderr, "innet-bench: %v\n", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "bench gate: ok")
		return
	}
	if *only != "" {
		for _, id := range strings.Split(strings.ToLower(*only), ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			r, ok := runners[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "innet-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			fmt.Println(r().String())
		}
		writeJSON()
		return
	}
	for _, id := range order {
		fmt.Println(runners[id]().String())
	}
	writeJSON()
}
