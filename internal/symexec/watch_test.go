package symexec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestRunWatchRecordsOnlyWatched pins Injection.Watch against the
// unwatched run on the run.golden networks, budget aborts included: a
// watched run's Visited is the unwatched AtNode key set, its AtNode
// holds only the watched node with the unwatched arrivals there, and
// everything else it reports is unchanged.
func TestRunWatchRecordsOnlyWatched(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		for _, maxSteps := range []int{0, 3} {
			net := genNetwork(t, rand.New(rand.NewSource(seed)))
			inj := genInjection()
			inj.MaxSteps = maxSteps
			full, ferr := net.Run(inj)
			watches := []string{"n0_0", "absent"}
			for node := range full.AtNode {
				watches = append(watches, node)
			}
			sort.Strings(watches)
			for _, w := range watches {
				winj := genInjection()
				winj.MaxSteps, winj.Watch = maxSteps, w
				got, gerr := net.Run(winj)
				where := fmt.Sprintf("seed %d max-steps %d watch %s", seed, maxSteps, w)
				if fmt.Sprint(gerr) != fmt.Sprint(ferr) {
					t.Fatalf("%s: err %v, unwatched %v", where, gerr, ferr)
				}
				if g, want := keySet(got.Visited), atKeys(full); g != want {
					t.Errorf("%s: Visited %s, unwatched AtNode keys %s", where, g, want)
				}
				if len(got.AtNode) > 1 || (len(got.AtNode) == 1 && got.AtNode[w] == nil) {
					t.Errorf("%s: AtNode has keys %s", where, atKeys(got))
				}
				// With AtNode narrowed to the watched node in both, the
				// renderings must agree byte for byte.
				want := *full
				want.AtNode = map[string][]*State{}
				if arr, ok := full.AtNode[w]; ok {
					want.AtNode[w] = arr
				}
				if g, wnt := got.Canonical(), want.Canonical(); g != wnt {
					t.Errorf("%s: watched run renders\n%s\nwant\n%s", where, g, wnt)
				}
			}
		}
	}
}

func keySet(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func atKeys(r *Result) string {
	m := make(map[string]bool, len(r.AtNode))
	for k := range r.AtNode {
		m[k] = true
	}
	return keySet(m)
}
