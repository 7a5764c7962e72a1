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
		quick = flag.Bool("quick", false, "shrink the heavyweight sweeps")
		only  = flag.String("only", "", "run selected experiments (comma-separated): fig5..fig16, table1, mawi, controller, https, replication")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

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
		"replication": func() *bench.Table { return bench.ReplicationTable(bench.ReplicationMeasure(*quick)) },
	}
	order := []string{
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"mawi", "mawi-replay", "controller", "https",
		"ablation-a", "ablation-b", "ablation-c", "replication",
	}

	if *list {
		fmt.Println(strings.Join(order, "\n"))
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
		return
	}
	for _, id := range order {
		fmt.Println(runners[id]().String())
	}
}
