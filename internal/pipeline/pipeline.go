// Package pipeline compiles an admitted click.Router into a flattened
// run-to-completion program: a topologically ordered stage table with
// pre-resolved edges between stages. Exec carries each packet through
// the table to its verdict, calling the same click.Element.Step the
// graph walk calls, so a compiled module's egress sequence, drops and
// element state are identical to the graph walk's.
//
// The compiled program shares element instances with the router it was
// compiled from, so ticker-driven drains (Exec.Tick walks the ordinary
// graph) and checkpoint/restore observe exactly the state the compiled
// stages mutate. Configurations the compiler does not flatten (pull-path
// wiring, cycles, order- or randomness-dependent branching,
// self-scheduled sources) fail with an UnsupportedError and callers fall
// back to graph-walk dispatch.
package pipeline

import (
	"errors"
	"fmt"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/elements"
)

// ErrUnsupported marks configurations the compiler cannot flatten.
// Callers should treat it as "use graph-walk dispatch", not as a
// deployment failure.
var ErrUnsupported = errors.New("unsupported configuration")

// UnsupportedError explains why a configuration cannot be flattened.
type UnsupportedError struct {
	Element string // instance name ("" for whole-graph conditions)
	Class   string
	Reason  string
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	if e.Element == "" {
		return "pipeline: " + e.Reason
	}
	return fmt.Sprintf("pipeline: %s :: %s: %s", e.Element, e.Class, e.Reason)
}

// Unwrap makes errors.Is(err, ErrUnsupported) work.
func (e *UnsupportedError) Unwrap() error { return ErrUnsupported }

// ref is a pre-resolved edge: the stage a packet emitted on some output
// port goes to, and the input port it arrives on. A nil stage means the
// output is unwired and the packet is dropped, mirroring click.Base.Out.
type ref struct {
	st   *stage
	port int
}

// stage is one flattened element.
type stage struct {
	el    click.Element
	next  []ref // per output port; missing ports drop
	name  string
	class string
}

// Program is a compiled router. A Program itself is immutable; run it
// through an Exec.
type Program struct {
	router *click.Router
	stages []stage
	srcs   []*stage                 // stage per injection point, in decl order
	index  map[click.Element]*stage // element -> stage (Tee copies)
}

// Router returns the router the program was compiled from.
func (p *Program) Router() *click.Router { return p.router }

// NumStages returns the number of flattened stages.
func (p *Program) NumStages() int { return len(p.stages) }

// NumSources returns the number of injection points.
func (p *Program) NumSources() int { return len(p.srcs) }

// Stages returns "name :: class" per stage in execution order, for
// diagnostics.
func (p *Program) Stages() []string {
	out := make([]string, len(p.stages))
	for i := range p.stages {
		out[i] = p.stages[i].name + " :: " + p.stages[i].class
	}
	return out
}

// Compile flattens a built router into a Program. It returns an
// UnsupportedError (unwrapping to ErrUnsupported) when the
// configuration cannot be flattened:
//
//   - pull-path wiring (a Puller output feeding a pull input),
//   - a cycle in the element graph,
//   - an element whose output interleaving depends on arrival order or
//     randomness (RoundRobinSwitch, RandomSample),
//   - self-scheduled sources (TimedSource) and pull consumers (Unqueue).
func Compile(r *click.Router) (*Program, error) {
	els := r.Elements()
	if len(els) == 0 {
		return nil, &UnsupportedError{Reason: "empty configuration"}
	}
	idx := make(map[click.Element]int32, len(els))
	for i, el := range els {
		idx[el] = int32(i)
	}

	// Reject pull-path wiring up front: those packets move on the
	// consumer's schedule, which run-to-completion cannot model.
	for _, el := range els {
		if _, isPuller := el.(click.Puller); !isPuller {
			continue
		}
		w := el.Wiring()
		for p := 0; p < w.NumWiredOutputs(); p++ {
			if t := w.Target(p); t.Elem != nil {
				if _, pull := t.Elem.(click.UpstreamSetter); pull {
					return nil, &UnsupportedError{el.Name(), el.Class(), "pull-path wiring (output drained by a pull consumer)"}
				}
			}
		}
	}

	// Kahn topological sort, picking the lowest declaration index at
	// every step so stage order is deterministic; it is also the cycle
	// check — a packet in an acyclic table always reaches a verdict.
	indeg := make([]int, len(els))
	for _, el := range els {
		w := el.Wiring()
		for p := 0; p < w.NumWiredOutputs(); p++ {
			if t := w.Target(p); t.Elem != nil {
				indeg[idx[t.Elem]]++
			}
		}
	}
	placed := make([]bool, len(els))
	order := make([]int32, 0, len(els))
	for len(order) < len(els) {
		pick := int32(-1)
		for i := range els {
			if !placed[i] && indeg[i] == 0 {
				pick = int32(i)
				break
			}
		}
		if pick < 0 {
			return nil, &UnsupportedError{Reason: "cycle in element graph"}
		}
		placed[pick] = true
		order = append(order, pick)
		w := els[pick].Wiring()
		for p := 0; p < w.NumWiredOutputs(); p++ {
			if t := w.Target(p); t.Elem != nil {
				indeg[idx[t.Elem]]--
			}
		}
	}

	prog := &Program{
		router: r,
		stages: make([]stage, len(els)),
		index:  make(map[click.Element]*stage, len(els)),
	}
	for si, di := range order {
		prog.index[els[di]] = &prog.stages[si]
	}
	for si, di := range order {
		el := els[di]
		if reason := unsupported(el); reason != "" {
			return nil, &UnsupportedError{el.Name(), el.Class(), reason}
		}
		st := &prog.stages[si]
		st.el = el
		st.name = el.Name()
		st.class = el.Class()
		w := el.Wiring()
		st.next = make([]ref, w.NumWiredOutputs())
		for p := range st.next {
			if t := w.Target(p); t.Elem != nil {
				st.next[p] = ref{st: prog.index[t.Elem], port: t.Port}
			}
		}
	}

	// Injection points, in declaration order (same order click.Build
	// collects them, so Exec.Run(i, ...) matches Router.Inject(i, ...)).
	for _, el := range els {
		if inj, ok := el.(click.Injector); ok && inj.InjectionPoint() {
			prog.srcs = append(prog.srcs, prog.index[el])
		}
	}
	if len(prog.srcs) == 0 {
		return nil, &UnsupportedError{Reason: "no injection point (FromNetfront)"}
	}
	return prog, nil
}

// unsupported names why a class stays on the graph walk, or "" when it
// compiles. Every class steps the same way on both dataplanes; these
// are the ones whose *schedule* differs: they either interleave packets
// across outputs in arrival order or move packets on their own clock.
func unsupported(el click.Element) string {
	switch el.(type) {
	case *elements.RoundRobinSwitch:
		return "output depends on packet arrival order"
	case *elements.RandomSample:
		return "probabilistic branching"
	case *elements.TimedSource:
		return "self-scheduled packet source"
	case *elements.Unqueue:
		return "pull-input element"
	}
	return ""
}

// CompileConfig parses, builds and compiles a configuration source.
func CompileConfig(src string) (*Program, error) {
	cfg, err := clicklang.Parse(src)
	if err != nil {
		return nil, err
	}
	r, err := click.Build(cfg)
	if err != nil {
		return nil, err
	}
	return Compile(r)
}
