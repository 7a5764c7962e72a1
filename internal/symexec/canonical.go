package symexec

import (
	"fmt"
	"sort"
	"strings"
)

// Labeled is implemented by models whose behaviour is a function of
// parameters that change while the node keeps its name, such as a
// platform's address demultiplexer. Canonical renders the label.
type Labeled interface {
	Label() string
}

// Canonical renders the network's structure independently of how it
// was built: sorted node names (a Labeled model's label follows its
// name), then sorted wires. Two networks with equal renderings have the
// same nodes and wiring, and the same parameters on every labeled node.
func (n *Network) Canonical() string {
	names := make([]string, 0, len(n.models))
	for name := range n.models {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		if l, ok := n.models[name].(Labeled); ok {
			fmt.Fprintf(&b, "node %s %s\n", name, l.Label())
		} else {
			fmt.Fprintf(&b, "node %s\n", name)
		}
	}
	for _, name := range names {
		w := n.wires[name]
		ports := make([]int, 0, len(w))
		for p := range w {
			ports = append(ports, p)
		}
		sort.Ints(ports)
		for _, p := range ports {
			fmt.Fprintf(&b, "wire %s:%d -> %s:%d\n", name, p, w[p].Node, w[p].Port)
		}
	}
	return b.String()
}

// Canonical renders everything a caller can observe from a Result but
// Visited: arrivals per node in sorted node order, egresses and drops,
// then the truncation flag and step count. States render up to
// variable renaming, so equal renderings mean equal outcomes.
func (r *Result) Canonical() string {
	var b strings.Builder
	nodes := make([]string, 0, len(r.AtNode))
	for n := range r.AtNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		fmt.Fprintf(&b, "at %s:\n", n)
		for _, s := range r.AtNode[n] {
			fmt.Fprintf(&b, "  %s\n", canonState(s))
		}
	}
	for _, e := range r.Egress {
		fmt.Fprintf(&b, "egress %s:%d %s\n", e.Node, e.Port, canonState(e.S))
	}
	drops := make([]string, 0, len(r.Dropped))
	for n := range r.Dropped {
		drops = append(drops, n)
	}
	sort.Strings(drops)
	for _, n := range drops {
		fmt.Fprintf(&b, "dropped %s=%d\n", n, r.Dropped[n])
	}
	fmt.Fprintf(&b, "truncated=%v steps=%d\n", r.Truncated, r.Steps)
	return b.String()
}

// canonState renders a state up to variable renaming: fields in sorted
// order with canonical variable indices (first appearance), value sets
// and definition hops, plus the traversal path. Bindings
// indistinguishable from the lazy Get default (Const(0), DefHop -1) are
// skipped.
func canonState(s *State) string {
	var b strings.Builder
	canon := make(map[VarID]int)
	for _, f := range s.Fields() {
		bind := s.Binding(f)
		if c, isConst := bind.E.IsConst(); isConst && c == 0 && bind.DefHop == -1 {
			continue
		}
		fmt.Fprintf(&b, "%s=", f)
		if c, isConst := bind.E.IsConst(); isConst {
			fmt.Fprintf(&b, "c%d", c)
		} else {
			id, _ := bind.E.IsVar()
			ci, seen := canon[id]
			if !seen {
				ci = len(canon)
				canon[id] = ci
			}
			fmt.Fprintf(&b, "x%d%s", ci, s.Values(f))
		}
		fmt.Fprintf(&b, "@%d;", bind.DefHop)
	}
	fmt.Fprintf(&b, " path=%v tag=%q", s.Path(), s.Tag)
	return b.String()
}
