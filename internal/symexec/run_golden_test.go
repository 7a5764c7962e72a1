package symexec

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestRunGolden is a behaviour oracle for Network.Run. It renders every
// observable Result field for 30 seeded random networks, then for
// step-budget aborts, MaxStates truncations and MaxHops truncations on
// fixed seeds. The rendering must equal testdata/run.golden byte for
// byte: the FIFO exploration order fixes AtNode and Egress ordering,
// the step at which ErrBudget fires and the state count at which
// MaxStates truncates.
//
// Only an intended behaviour change regenerates the file, by writing
// renderRun's output to it.
func TestRunGolden(t *testing.T) {
	got := renderRun(t)
	want, err := os.ReadFile("testdata/run.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("run transcript differs at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("run transcript has %d lines, golden has %d", len(g), len(w))
}

// renderRun runs every golden case and renders its result.
func renderRun(t *testing.T) string {
	var b strings.Builder
	run := func(header string, seed int64, tweak func(*Injection)) {
		net := genNetwork(t, rand.New(rand.NewSource(seed)))
		inj := genInjection()
		tweak(&inj)
		res, err := net.Run(inj)
		fmt.Fprintf(&b, "# %s\n%s", header, canonResult(res, err))
	}
	for seed := int64(0); seed < 30; seed++ {
		run(fmt.Sprintf("seed %d", seed), seed, func(*Injection) {})
	}
	for _, maxSteps := range []int{1, 2, 3, 5, 8} {
		run(fmt.Sprintf("seed 42 max-steps %d", maxSteps), 42, func(inj *Injection) { inj.MaxSteps = maxSteps })
	}
	for _, maxStates := range []int{1, 2, 4, 9} {
		run(fmt.Sprintf("seed 7 max-states %d", maxStates), 7, func(inj *Injection) { inj.MaxStates = maxStates })
	}
	for _, maxHops := range []int{1, 2, 3} {
		for _, seed := range []int64{7, 42} {
			run(fmt.Sprintf("seed %d max-hops %d", seed, maxHops), seed, func(inj *Injection) { inj.MaxHops = maxHops })
		}
	}
	// A hop bound and a step budget together: hop-truncated flows must
	// not be charged a step.
	for _, maxSteps := range []int{2, 3} {
		run(fmt.Sprintf("seed 7 max-hops 3 max-steps %d", maxSteps), 7, func(inj *Injection) {
			inj.MaxHops, inj.MaxSteps = 3, maxSteps
		})
	}
	return b.String()
}

// canonResult renders a run's error, if any, then its Result.
func canonResult(res *Result, err error) string {
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "err=%q budget=%v\n", err, errors.Is(err, ErrBudget))
	}
	if res != nil {
		b.WriteString(res.Canonical())
	}
	return b.String()
}

// genNetwork builds a seeded random layered network out of pure
// parametric models: filters, NAT-style rewrites, branchers, tag
// writers and fan-out duplicators.
func genNetwork(t *testing.T, rng *rand.Rand) *Network {
	t.Helper()
	n := NewNetwork()
	layers := 2 + rng.Intn(4)
	width := 1 + rng.Intn(4)
	var names [][]string
	for l := 0; l < layers; l++ {
		var layer []string
		for w := 0; w < width; w++ {
			name := fmt.Sprintf("n%d_%d", l, w)
			var m Model
			switch rng.Intn(5) {
			case 0: // proto filter
				lo := uint64(rng.Intn(100))
				hi := lo + uint64(rng.Intn(100))
				m = FuncModel(func(port int, s *State) []Transition {
					if !s.Constrain(FieldProto, Span(lo, hi)) {
						return nil
					}
					return []Transition{{Port: 0, S: s}}
				})
			case 1: // NAT: rewrite source, fresh source port
				ip := uint64(rng.Uint32())
				m = FuncModel(func(port int, s *State) []Transition {
					s.Assign(FieldSrcIP, Const(ip))
					s.AssignFresh(FieldSrcPort)
					return []Transition{{Port: 0, S: s}}
				})
			case 2: // two-way brancher on dst port
				split := uint64(1 + rng.Intn(60000))
				m = FuncModel(func(port int, s *State) []Transition {
					lo := s.Clone()
					var out []Transition
					if lo.Constrain(FieldDstPort, Span(0, split-1)) {
						out = append(out, Transition{Port: 0, S: lo})
					}
					if s.Constrain(FieldDstPort, Span(split, 65535)) {
						out = append(out, Transition{Port: 1, S: s})
					}
					return out
				})
			case 3: // tag writer (middlebox state into the flow)
				tag := uint64(1 + rng.Intn(200))
				m = FuncModel(func(port int, s *State) []Transition {
					s.Assign(FieldFWTag, Const(tag))
					return []Transition{{Port: 0, S: s}}
				})
			default: // fan-out duplicator (round-robin style may-branch)
				ways := 2 + rng.Intn(2)
				m = FuncModel(func(port int, s *State) []Transition {
					out := make([]Transition, 0, ways)
					for i := 0; i < ways; i++ {
						out = append(out, Transition{Port: i, S: s.Clone()})
					}
					return out
				})
			}
			if err := n.AddNode(name, m); err != nil {
				t.Fatal(err)
			}
			layer = append(layer, name)
		}
		names = append(names, layer)
	}
	// Wire each node's ports 0..2 forward to random nodes of the next
	// layer; last layer's ports stay unwired (egress).
	for l := 0; l+1 < layers; l++ {
		for _, from := range names[l] {
			for p := 0; p < 3; p++ {
				to := names[l+1][rng.Intn(len(names[l+1]))]
				if err := n.Connect(from, p, to, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return n
}

func genInjection() Injection {
	s := NewState()
	s.Constrain(FieldProto, Span(0, 150))
	s.Tag = "diff"
	return Injection{Node: "n0_0", Port: 0, State: s}
}
