package symexec

import (
	"errors"
	"fmt"
	"time"
)

// ErrBudget is wrapped by Run when exploration exhausts its step or
// wall-clock budget; callers detect it with errors.Is and turn it
// into an admission rejection rather than hanging on a pathological
// configuration.
var ErrBudget = errors.New("symexec: exploration budget exceeded")

// DefaultMaxSteps bounds total model executions per Run when the
// injection does not set its own budget.
const DefaultMaxSteps = 1 << 20

// deadlineCheckEvery is how many steps pass between wall-clock
// deadline checks (time.Now per step would dominate small runs).
const deadlineCheckEvery = 256

// Transition is one outcome of symbolically executing a model: the
// state continues out of the given output port. A model returning no
// transitions drops the flow (e.g. a filter's deny rule).
type Transition struct {
	Port int
	S    *State
}

// Model is the abstract, statically-checkable description of a
// network element (paper §4.3). Sym consumes the state (it may mutate
// or clone it) and returns the resulting flows. Models must not loop
// and must not allocate unbounded state; stateful behaviour is pushed
// into the flow's synthetic fields.
type Model interface {
	Sym(port int, s *State) []Transition
}

// FuncModel adapts a function to the Model interface.
type FuncModel func(port int, s *State) []Transition

// Sym implements Model.
func (f FuncModel) Sym(port int, s *State) []Transition { return f(port, s) }

// Forward is a model that passes every state through unchanged to
// output port 0 (a wire).
var Forward = FuncModel(func(port int, s *State) []Transition {
	return []Transition{{Port: 0, S: s}}
})

// PortRef names an input port of a node.
type PortRef struct {
	Node string
	Port int
}

// Network is a graph of named models, compiled from the operator's
// topology snapshot plus any candidate processing modules. It is what
// the controller runs reachability over.
type Network struct {
	models map[string]Model
	wires  map[string]map[int]PortRef
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		models: make(map[string]Model),
		wires:  make(map[string]map[int]PortRef),
	}
}

// AddNode registers a named model.
func (n *Network) AddNode(name string, m Model) error {
	if _, dup := n.models[name]; dup {
		return fmt.Errorf("symexec: node %q already exists", name)
	}
	if m == nil {
		return fmt.Errorf("symexec: node %q has nil model", name)
	}
	n.models[name] = m
	return nil
}

// SetModel replaces the model of an existing node, keeping its wires.
func (n *Network) SetModel(name string, m Model) error {
	if _, ok := n.models[name]; !ok {
		return fmt.Errorf("symexec: unknown node %q", name)
	}
	if m == nil {
		return fmt.Errorf("symexec: node %q has nil model", name)
	}
	n.models[name] = m
	return nil
}

// RemoveNode deletes a node and the wires leaving it. Wires from other
// nodes into it are the caller's to Disconnect: Run panics on a flow
// that follows a wire to a missing node.
func (n *Network) RemoveNode(name string) {
	delete(n.models, name)
	delete(n.wires, name)
}

// Disconnect removes the wire leaving from:fromPort, if any.
func (n *Network) Disconnect(from string, fromPort int) {
	if w := n.wires[from]; w != nil {
		delete(w, fromPort)
		if len(w) == 0 {
			delete(n.wires, from)
		}
	}
}

// HasNode reports whether a node exists.
func (n *Network) HasNode(name string) bool {
	_, ok := n.models[name]
	return ok
}

// Connect wires from:fromPort to to:toPort. Each output port has at
// most one target.
func (n *Network) Connect(from string, fromPort int, to string, toPort int) error {
	if _, ok := n.models[from]; !ok {
		return fmt.Errorf("symexec: unknown node %q", from)
	}
	if _, ok := n.models[to]; !ok {
		return fmt.Errorf("symexec: unknown node %q", to)
	}
	w := n.wires[from]
	if w == nil {
		w = make(map[int]PortRef)
		n.wires[from] = w
	}
	if prev, dup := w[fromPort]; dup {
		return fmt.Errorf("symexec: %s:%d already wired to %s:%d", from, fromPort, prev.Node, prev.Port)
	}
	w[fromPort] = PortRef{Node: to, Port: toPort}
	return nil
}

// Target returns the wiring of an output port.
func (n *Network) Target(from string, port int) (PortRef, bool) {
	w, ok := n.wires[from]
	if !ok {
		return PortRef{}, false
	}
	t, ok := w[port]
	return t, ok
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.models) }

// Egress is a state that left the network through an unwired output
// port.
type Egress struct {
	Node string
	Port int
	S    *State
}

// Result collects everything reachability produced for one injection.
type Result struct {
	// AtNode records, per node name, the states as they *arrived* at
	// the node (before its model ran). This is "the flow reachable at
	// every node" of §4.3. With Injection.Watch set it holds only the
	// watched node's arrivals.
	AtNode map[string][]*State
	// Visited marks every node a flow arrived at and executed: the key
	// set of an unwatched run's AtNode, whatever Watch says.
	Visited map[string]bool
	// Egress lists states that exited the network.
	Egress []Egress
	// Dropped counts flows terminated by models, per node.
	Dropped map[string]int
	// Truncated is set when the hop bound stopped exploration.
	Truncated bool
	// Steps is the total number of model executions.
	Steps int
}

// Injection describes a reachability run.
type Injection struct {
	// Node and Port locate the entry input port.
	Node string
	Port int
	// State is the symbolic packet to inject; NewState() if nil.
	State *State
	// MaxHops bounds any single flow's path length (default 8192).
	MaxHops int
	// MaxStates bounds the total number of in-flight flows to guard
	// against pathological branching (default 65536).
	MaxStates int
	// MaxSteps bounds total model executions across the whole run
	// (default DefaultMaxSteps). Exceeding it aborts with ErrBudget —
	// unlike MaxHops/MaxStates, which merely truncate — because a
	// config that needs this many steps is hostile or broken, and an
	// admission verdict computed from a partial exploration would be
	// unsound.
	MaxSteps int
	// Deadline aborts exploration (with ErrBudget) once the wall
	// clock passes it; the zero value means no deadline.
	Deadline time.Time
	// Watch, when non-empty, restricts AtNode to the arrivals at that
	// node: a caller that reads one node's arrivals saves a state clone
	// per step elsewhere. Empty records arrivals at every node.
	Watch string
}

type workItem struct {
	node string
	port int
	s    *State
}

// Run performs symbolic reachability from the injection point,
// breadth-first, splitting flows at every branching model. The FIFO
// queue fixes the order of AtNode and Egress entries and the step at
// which a budget abort or MaxStates truncation fires.
func (n *Network) Run(inj Injection) (*Result, error) {
	if _, ok := n.models[inj.Node]; !ok {
		return nil, fmt.Errorf("symexec: injection node %q unknown", inj.Node)
	}
	st := inj.State
	if st == nil {
		st = NewState()
	}
	maxHops := inj.MaxHops
	if maxHops <= 0 {
		maxHops = 8192
	}
	maxStates := inj.MaxStates
	if maxStates <= 0 {
		maxStates = 65536
	}
	maxSteps := inj.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	res := &Result{
		AtNode:  make(map[string][]*State),
		Visited: make(map[string]bool),
		Dropped: make(map[string]int),
	}
	queue := []workItem{{node: inj.Node, port: inj.Port, s: st}}
	produced := 1
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.s.PathLen() >= maxHops {
			res.Truncated = true
			continue
		}
		it.s.PushHop(it.node, it.port)
		res.Visited[it.node] = true
		if inj.Watch == "" || inj.Watch == it.node {
			res.AtNode[it.node] = append(res.AtNode[it.node], it.s.Clone())
		}
		res.Steps++
		if res.Steps > maxSteps {
			return res, fmt.Errorf("symexec: %d model executions (last at %s): %w", res.Steps, it.node, ErrBudget)
		}
		if !inj.Deadline.IsZero() && res.Steps%deadlineCheckEvery == 0 && time.Now().After(inj.Deadline) {
			return res, fmt.Errorf("symexec: deadline passed after %d model executions (last at %s): %w", res.Steps, it.node, ErrBudget)
		}
		trs := n.models[it.node].Sym(it.port, it.s)
		if len(trs) == 0 {
			res.Dropped[it.node]++
			continue
		}
		for _, tr := range trs {
			if tr.S == nil {
				continue
			}
			tgt, wired := n.Target(it.node, tr.Port)
			if !wired {
				res.Egress = append(res.Egress, Egress{Node: it.node, Port: tr.Port, S: tr.S})
				continue
			}
			produced++
			if produced > maxStates {
				res.Truncated = true
				return res, nil
			}
			queue = append(queue, workItem{node: tgt.Node, port: tgt.Port, s: tr.S})
		}
	}
	return res, nil
}
