// Package policy implements the In-Net requirements language (paper
// §4.2) and its checker. Both clients and the operator express policy
// as reachability statements over the network:
//
//	reach from <node> [flow] {-> <node> [flow] [const <fields>]}+
//
// where a node is an IP address or subnet, the keyword "client"
// (the operator's residential clients), the keyword "internet", a
// topology node name, or a port of a Click element in a processing
// module ("module:element:port"). Flow specifications use tcpdump
// syntax; "const" lists header fields that must remain invariant on
// the hop into that node. The example from the paper's Fig. 4:
//
//	reach from internet udp
//	  -> Batcher:dst:0 dst 172.16.15.133
//	  -> client dst port 1500
//	  const proto && dst port && payload
package policy

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/in-net/innet/internal/flowspec"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/topology"
)

// NodeRefKind classifies requirement node references.
type NodeRefKind int

// Node reference kinds.
const (
	RefInternet NodeRefKind = iota
	RefClient
	RefNamed      // topology node or processing module by name
	RefModuleElem // module:element[:port]
	RefAddr       // IP address or subnet
)

// NodeRef is one <node> in a requirement.
type NodeRef struct {
	Kind   NodeRefKind
	Name   string // RefNamed: node/module name; RefModuleElem: module
	Elem   string // RefModuleElem only
	Port   int    // RefModuleElem only (default 0)
	Prefix packet.Prefix
}

func (r NodeRef) String() string {
	switch r.Kind {
	case RefInternet:
		return "internet"
	case RefClient:
		return "client"
	case RefNamed:
		return r.Name
	case RefModuleElem:
		return fmt.Sprintf("%s:%s:%d", r.Name, r.Elem, r.Port)
	case RefAddr:
		if r.Prefix.Bits == 32 {
			return packet.IPString(r.Prefix.Addr)
		}
		return r.Prefix.String()
	}
	return "?"
}

// HopSpec is one hop of a requirement.
type HopSpec struct {
	Node NodeRef
	// Flow constrains the flow observed at (departing) this node;
	// nil means unconstrained.
	Flow *flowspec.Spec
	// Const lists fields that must not be modified on the hop
	// arriving at this node (empty on the first hop).
	Const []symexec.Field
}

// Requirement is one parsed reach statement.
type Requirement struct {
	Hops   []HopSpec
	Source string
}

func (r *Requirement) String() string { return r.Source }

// Parse parses a single reach statement.
func Parse(src string) (*Requirement, error) {
	reqs, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(reqs) != 1 {
		return nil, fmt.Errorf("policy: want exactly one requirement, got %d", len(reqs))
	}
	return reqs[0], nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Requirement {
	r, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return r
}

// ParseAll parses a sequence of reach statements (one per "reach"
// keyword; statements may span lines).
func ParseAll(src string) ([]*Requirement, error) {
	var reqs []*Requirement
	text := strings.TrimSpace(src)
	if text == "" {
		return nil, fmt.Errorf("policy: empty requirement text")
	}
	// Split on the "reach" keyword.
	chunks := splitOnKeyword(text, "reach")
	if len(chunks) == 0 {
		return nil, fmt.Errorf("policy: no 'reach' statement found")
	}
	for _, c := range chunks {
		r, err := parseOne(c)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// splitOnKeyword splits text into chunks each beginning with the
// keyword (which is removed).
func splitOnKeyword(text, kw string) []string {
	fields := strings.Fields(text)
	var chunks []string
	var cur []string
	for _, f := range fields {
		if strings.EqualFold(f, kw) {
			if len(cur) > 0 {
				chunks = append(chunks, strings.Join(cur, " "))
			}
			cur = nil
			continue
		}
		cur = append(cur, f)
	}
	if len(cur) > 0 {
		chunks = append(chunks, strings.Join(cur, " "))
	}
	// The text must begin with the keyword.
	if !strings.EqualFold(fields[0], kw) {
		return nil
	}
	return chunks
}

// parseOne parses the body of a reach statement (after "reach").
func parseOne(body string) (*Requirement, error) {
	fields := strings.Fields(body)
	if len(fields) == 0 || !strings.EqualFold(fields[0], "from") {
		return nil, fmt.Errorf("policy: requirement must start with 'reach from': %q", body)
	}
	rest := strings.Join(fields[1:], " ")
	segments := strings.Split(rest, "->")
	if len(segments) < 2 {
		return nil, fmt.Errorf("policy: requirement needs at least one '->' hop: %q", body)
	}
	req := &Requirement{Source: "reach from " + strings.TrimSpace(rest)}
	for i, seg := range segments {
		hop, err := parseHop(seg, i == 0)
		if err != nil {
			return nil, fmt.Errorf("policy: hop %d: %v", i, err)
		}
		req.Hops = append(req.Hops, hop)
	}
	return req, nil
}

// parseHop parses "<node> [flow] [const <fields>]".
func parseHop(seg string, first bool) (HopSpec, error) {
	seg = strings.TrimSpace(seg)
	if seg == "" {
		return HopSpec{}, fmt.Errorf("empty hop")
	}
	// Extract a trailing const clause.
	var constFields []symexec.Field
	if idx := indexOfWord(seg, "const"); idx >= 0 {
		if first {
			return HopSpec{}, fmt.Errorf("const is not allowed on the source hop")
		}
		fl, err := flowspec.ParseFieldList(seg[idx+len("const"):])
		if err != nil {
			return HopSpec{}, err
		}
		constFields = fl
		seg = strings.TrimSpace(seg[:idx])
	}
	fields := strings.Fields(seg)
	if len(fields) == 0 {
		return HopSpec{}, fmt.Errorf("hop has a const clause but no node")
	}
	ref, err := parseNodeRef(fields[0])
	if err != nil {
		return HopSpec{}, err
	}
	var spec *flowspec.Spec
	if len(fields) > 1 {
		spec, err = flowspec.Parse(strings.Join(fields[1:], " "))
		if err != nil {
			return HopSpec{}, err
		}
	}
	return HopSpec{Node: ref, Flow: spec, Const: constFields}, nil
}

// indexOfWord finds a whitespace-delimited word, or -1.
func indexOfWord(s, word string) int {
	off := 0
	for _, f := range strings.Fields(s) {
		i := strings.Index(s[off:], f)
		pos := off + i
		if strings.EqualFold(f, word) {
			return pos
		}
		off = pos + len(f)
	}
	return -1
}

// parseNodeRef parses one node token.
func parseNodeRef(tok string) (NodeRef, error) {
	switch strings.ToLower(tok) {
	case "internet":
		return NodeRef{Kind: RefInternet}, nil
	case "client", "clients":
		return NodeRef{Kind: RefClient}, nil
	}
	// IP or subnet?
	if pfx, err := packet.ParsePrefix(tok); err == nil {
		return NodeRef{Kind: RefAddr, Prefix: pfx}, nil
	}
	// module:element[:port]
	if strings.Contains(tok, ":") {
		parts := strings.Split(tok, ":")
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
			return NodeRef{}, fmt.Errorf("bad element reference %q", tok)
		}
		ref := NodeRef{Kind: RefModuleElem, Name: parts[0], Elem: parts[1]}
		if len(parts) == 3 {
			p, err := strconv.Atoi(parts[2])
			if err != nil || p < 0 {
				return NodeRef{}, fmt.Errorf("bad port in %q", tok)
			}
			ref.Port = p
		}
		return ref, nil
	}
	return NodeRef{Kind: RefNamed, Name: tok}, nil
}

// CheckEnv is everything a requirement check runs against: a compiled
// network snapshot plus naming and addressing context.
type CheckEnv struct {
	Net *symexec.Network
	Map *topology.NetMap
	// ClientNet is the operator's residential client subnet.
	ClientNet packet.Prefix
	// MaxHops bounds reachability runs (0 = default).
	MaxHops int
	// MaxSteps bounds the total symbolic steps one Check may spend
	// across all of its reachability runs (0 = symexec's per-run
	// default). Exhaustion surfaces as a symexec.ErrBudget error.
	MaxSteps int
	// Deadline aborts checking once the wall clock passes it (zero =
	// no deadline).
	Deadline time.Time
	// Visited, when non-nil, accumulates the name of every compiled
	// node some reachability run of this environment executed. A
	// check's outcome is a function of the models of visited nodes
	// only — an unvisited node's model never ran, so changing it
	// cannot alter any flow the check observed — which makes Visited
	// the dependency footprint for delta cache invalidation.
	Visited map[string]bool
	// RefNames, when non-nil, accumulates requirement node references
	// resolved *by name* (modules, module elements, topology nodes):
	// an outcome can depend on a name's existence — "unknown element"
	// resolution errors, "no flow reaches" verdicts — even when no
	// flow ever executes the named node.
	RefNames map[string]bool
}

func (env *CheckEnv) noteVisited(run *symexec.Result) {
	if env.Visited == nil || run == nil {
		return
	}
	for node := range run.Visited {
		env.Visited[node] = true
	}
}

func (env *CheckEnv) noteRef(name string) {
	if env.RefNames != nil && name != "" {
		env.RefNames[name] = true
	}
}

// HopReport records the verdict for one hop.
type HopReport struct {
	Node      string
	Arrived   int // states that arrived at the node (right port)
	Matched   int // states also satisfying the hop's flow spec
	Invariant bool
}

// CheckResult is the outcome of checking one requirement.
type CheckResult struct {
	Satisfied bool
	// Reason describes the first failure.
	Reason string
	Hops   []HopReport
	// Steps sums symbolic execution steps across hop runs.
	Steps int
}

// Check verifies the requirement against the environment (§4.3): a
// symbolic packet refined by the source flow definition is injected
// at the source node, reachability is run, and at every subsequent
// hop the resulting flows must (a) reach the hop's node/port, (b)
// satisfy the hop's flow specification, and (c) leave the hop's const
// fields unmodified since the previous hop. The requirement is
// satisfied if at least one symbolic flow conforms end to end.
func (r *Requirement) Check(env *CheckEnv) (*CheckResult, error) {
	res := &CheckResult{}
	if len(r.Hops) < 2 {
		return nil, fmt.Errorf("policy: requirement has no hops")
	}
	src := r.Hops[0]
	injNode, err := env.resolveNode(src.Node)
	if err != nil {
		return nil, err
	}

	// Build the injected states: an unconstrained packet refined by
	// the source flow definition (plus source-address constraints for
	// client/internet/addr sources).
	init := symexec.NewState()
	if err := env.constrainSource(src.Node, init); err != nil {
		return nil, err
	}
	states := []*symexec.State{init}
	if src.Flow != nil {
		states = src.Flow.Refine(init)
		if len(states) == 0 {
			res.Reason = "source flow specification is unsatisfiable"
			return res, nil
		}
	}

	// Walk the hop chain. After each leg we re-inject the surviving
	// (refined) flows at the hop's node to continue exploration.
	prevNodes := []string{injNode}
	for hi := 1; hi < len(r.Hops); hi++ {
		hop := r.Hops[hi]
		var arrivals []*symexec.State
		node, port, perr := env.resolveHop(hop.Node)
		if perr != nil {
			return nil, perr
		}
		for _, st := range states {
			// The step budget is shared across the whole check: each
			// run gets what the previous ones left over.
			budget := 0
			if env.MaxSteps > 0 {
				budget = env.MaxSteps - res.Steps
				if budget <= 0 {
					return nil, fmt.Errorf("policy: requirement %q: %d steps spent: %w", r, res.Steps, symexec.ErrBudget)
				}
			}
			run, rerr := env.Net.Run(symexec.Injection{
				Node: injNode, State: st, MaxHops: env.MaxHops,
				MaxSteps: budget, Deadline: env.Deadline, Watch: node,
			})
			if run != nil {
				res.Steps += run.Steps
				env.noteVisited(run)
			}
			if rerr != nil {
				return nil, rerr
			}
			for _, got := range run.AtNode[node] {
				if port >= 0 {
					if last, ok := got.LastHop(); !ok || last.Port != port {
						continue
					}
				}
				arrivals = append(arrivals, got)
			}
		}
		report := HopReport{Node: hop.Node.String(), Arrived: len(arrivals), Invariant: true}
		if len(arrivals) == 0 {
			res.Hops = append(res.Hops, report)
			res.Reason = fmt.Sprintf("no flow reaches %s", hop.Node)
			return res, nil
		}
		// Apply the hop's flow specification and destination
		// constraints.
		var matched []*symexec.State
		for _, a := range arrivals {
			cand := a
			if hop.Node.Kind == RefClient {
				lo, hi2 := env.ClientNet.Range()
				if !cand.Constrain(symexec.FieldDstIP, symexec.Span(uint64(lo), uint64(hi2))) {
					continue
				}
			}
			if hop.Node.Kind == RefAddr {
				lo, hi2 := hop.Node.Prefix.Range()
				if !cand.Constrain(symexec.FieldDstIP, symexec.Span(uint64(lo), uint64(hi2))) {
					continue
				}
			}
			if hop.Flow != nil {
				matched = append(matched, hop.Flow.Refine(cand)...)
			} else {
				matched = append(matched, cand)
			}
		}
		report.Matched = len(matched)
		if len(matched) == 0 {
			res.Hops = append(res.Hops, report)
			res.Reason = fmt.Sprintf("flows reach %s but none satisfies %q", hop.Node, hop.Flow)
			return res, nil
		}
		// Invariant check: const fields must not have been redefined
		// after the previous hop.
		if len(hop.Const) > 0 {
			var inv []*symexec.State
			for _, m := range matched {
				if fieldsInvariantSince(m, prevNodes, hop.Const) {
					inv = append(inv, m)
				}
			}
			if len(inv) == 0 {
				report.Invariant = false
				res.Hops = append(res.Hops, report)
				res.Reason = fmt.Sprintf("invariant %v violated on the hop into %s", hop.Const, hop.Node)
				return res, nil
			}
			matched = inv
		}
		res.Hops = append(res.Hops, report)
		states = matched
		injNode = node
		prevNodes = []string{node}
	}
	res.Satisfied = true
	return res, nil
}

// fieldsInvariantSince reports whether every field's last definition
// happened at or before the previous hop's node.
func fieldsInvariantSince(s *symexec.State, prevNodes []string, fields []symexec.Field) bool {
	prevIdx := -1
	for _, pn := range prevNodes {
		if i := s.HopIndex(pn, -1); i > prevIdx {
			prevIdx = i
		}
	}
	for _, f := range fields {
		if s.Binding(f).DefHop > prevIdx {
			return false
		}
	}
	return true
}

// resolveNode maps a source node reference to the injection node.
func (env *CheckEnv) resolveNode(ref NodeRef) (string, error) {
	switch ref.Kind {
	case RefInternet:
		return env.mustEntry(topology.NodeInternet)
	case RefClient:
		return env.mustEntry(topology.NodeClient)
	case RefAddr:
		// A raw address source originates in the Internet.
		return env.mustEntry(topology.NodeInternet)
	case RefNamed:
		env.noteRef(ref.Name)
		if n, ok := env.Map.EntryNode(ref.Name); ok {
			return n, nil
		}
		if m := env.Map.Module(ref.Name); m != nil {
			// Module as source: inject at its first element.
			return "", fmt.Errorf("policy: module %q cannot be a source; name an element port", ref.Name)
		}
		return "", fmt.Errorf("policy: unknown node %q", ref.Name)
	case RefModuleElem:
		env.noteRef(ref.Name)
		node := env.Map.ModuleElem(ref.Name, ref.Elem)
		if !env.Net.HasNode(node) {
			return "", fmt.Errorf("policy: unknown element %s", ref)
		}
		return node, nil
	}
	return "", fmt.Errorf("policy: unsupported source node %v", ref)
}

// resolveHop maps a non-source node reference to (node, portFilter).
// portFilter < 0 means any arrival port.
func (env *CheckEnv) resolveHop(ref NodeRef) (string, int, error) {
	switch ref.Kind {
	case RefInternet, RefAddr:
		n, err := env.mustEntry(topology.NodeInternet)
		return n, -1, err
	case RefClient:
		n, err := env.mustEntry(topology.NodeClient)
		return n, -1, err
	case RefNamed:
		env.noteRef(ref.Name)
		if n, ok := env.Map.EntryNode(ref.Name); ok {
			return n, -1, nil
		}
		return "", 0, fmt.Errorf("policy: unknown node %q", ref.Name)
	case RefModuleElem:
		env.noteRef(ref.Name)
		node := env.Map.ModuleElem(ref.Name, ref.Elem)
		if !env.Net.HasNode(node) {
			return "", 0, fmt.Errorf("policy: unknown element %s", ref)
		}
		return node, ref.Port, nil
	}
	return "", 0, fmt.Errorf("policy: unsupported node %v", ref)
}

func (env *CheckEnv) mustEntry(name string) (string, error) {
	n, ok := env.Map.EntryNode(name)
	if !ok {
		return "", fmt.Errorf("policy: topology has no %q endpoint", name)
	}
	return n, nil
}

// constrainSource applies source-address constraints implied by the
// source node kind.
func (env *CheckEnv) constrainSource(ref NodeRef, s *symexec.State) error {
	switch ref.Kind {
	case RefClient:
		lo, hi := env.ClientNet.Range()
		if !s.Constrain(symexec.FieldSrcIP, symexec.Span(uint64(lo), uint64(hi))) {
			return fmt.Errorf("policy: client subnet constraint unsatisfiable")
		}
	case RefAddr:
		lo, hi := ref.Prefix.Range()
		if !s.Constrain(symexec.FieldSrcIP, symexec.Span(uint64(lo), uint64(hi))) {
			return fmt.Errorf("policy: source address constraint unsatisfiable")
		}
	}
	return nil
}
