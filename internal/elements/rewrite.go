package elements

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("IPRewriter", func() click.Element { return &IPRewriter{} })
	click.Register("DecIPTTL", func() click.Element { return &DecIPTTL{} })
	click.Register("LookupIPRoute", func() click.Element { return &LookupIPRoute{} })
}

// rewritePattern is one "pattern SADDR SPORT DADDR DPORT FOUT ROUT"
// mapping. Nil pointers mean "-" (leave unchanged).
type rewritePattern struct {
	srcIP, dstIP     *uint32
	srcPort, dstPort *uint16
	fwdOut, revOut   int
}

// IPRewriter rewrites packet addresses/ports according to patterns,
// the element NATs and the paper's Fig. 4 batcher are built from:
//
//	IPRewriter(pattern - - 172.16.15.133 - 0 0)
//
// Input port 0 takes forward-direction traffic; input port 1, if
// used, takes reply traffic which is rewritten back using the
// recorded flow mappings (stateful, like a NAT's reverse path).
type IPRewriter struct {
	click.Base
	patterns []rewritePattern
	// mappings records forward rewrites: rewritten reverse tuple ->
	// original forward tuple, for the reply path.
	mappings map[packet.FiveTuple]packet.FiveTuple
	maxOut   int
}

// Class implements click.Element.
func (e *IPRewriter) Class() string { return "IPRewriter" }

// Configure implements click.Element.
func (e *IPRewriter) Configure(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("IPRewriter: need at least one pattern")
	}
	e.mappings = make(map[packet.FiveTuple]packet.FiveTuple)
	for _, a := range args {
		f := strings.Fields(a)
		if len(f) != 7 || strings.ToLower(f[0]) != "pattern" {
			return fmt.Errorf("IPRewriter: want 'pattern SADDR SPORT DADDR DPORT FOUT ROUT', got %q", a)
		}
		var p rewritePattern
		var err error
		if p.srcIP, err = parseAddrArg(f[1]); err != nil {
			return fmt.Errorf("IPRewriter: SADDR: %v", err)
		}
		if p.srcPort, err = parsePortArg(f[2]); err != nil {
			return fmt.Errorf("IPRewriter: SPORT: %v", err)
		}
		if p.dstIP, err = parseAddrArg(f[3]); err != nil {
			return fmt.Errorf("IPRewriter: DADDR: %v", err)
		}
		if p.dstPort, err = parsePortArg(f[4]); err != nil {
			return fmt.Errorf("IPRewriter: DPORT: %v", err)
		}
		if p.fwdOut, err = strconv.Atoi(f[5]); err != nil || p.fwdOut < 0 {
			return fmt.Errorf("IPRewriter: bad FOUTPUT %q", f[5])
		}
		if p.revOut, err = strconv.Atoi(f[6]); err != nil || p.revOut < 0 {
			return fmt.Errorf("IPRewriter: bad ROUTPUT %q", f[6])
		}
		if p.fwdOut > e.maxOut {
			e.maxOut = p.fwdOut
		}
		if p.revOut > e.maxOut {
			e.maxOut = p.revOut
		}
		e.patterns = append(e.patterns, p)
	}
	return nil
}

func parseAddrArg(s string) (*uint32, error) {
	if s == "-" {
		return nil, nil
	}
	ip, err := packet.ParseIP(s)
	if err != nil {
		return nil, err
	}
	return &ip, nil
}

func parsePortArg(s string) (*uint16, error) {
	if s == "-" {
		return nil, nil
	}
	n, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("bad port %q", s)
	}
	p := uint16(n)
	return &p, nil
}

// InPorts implements click.Element.
func (e *IPRewriter) InPorts() int { return 2 }

// OutPorts implements click.Element.
func (e *IPRewriter) OutPorts() int { return e.maxOut + 1 }

// Step implements click.Element: reply packets with no recorded
// mapping are dropped.
func (e *IPRewriter) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if port == 1 {
		// Reply direction: restore the recorded original tuple.
		orig, ok := e.mappings[p.Tuple()]
		if !ok {
			return click.Drop(click.DropNoRoute)
		}
		p.SrcIP, p.DstIP = orig.DstIP, orig.SrcIP
		p.SrcPort, p.DstPort = orig.DstPort, orig.SrcPort
		return click.Verdict(e.patterns[0].revOut)
	}
	pat := e.patterns[0]
	orig := p.Tuple()
	if pat.srcIP != nil {
		p.SrcIP = *pat.srcIP
	}
	if pat.srcPort != nil {
		p.SrcPort = *pat.srcPort
	}
	if pat.dstIP != nil {
		p.DstIP = *pat.dstIP
	}
	if pat.dstPort != nil {
		p.DstPort = *pat.dstPort
	}
	e.mappings[p.Tuple().Reverse()] = orig
	return click.Verdict(pat.fwdOut)
}

// Sym implements symexec.Model. The forward direction assigns the
// configured constants; the reply direction restores values that are
// only known at runtime, so rewritten fields become fresh variables.
func (e *IPRewriter) Sym(port int, s *symexec.State) []symexec.Transition {
	pat := e.patterns[0]
	if port == 1 {
		if pat.srcIP != nil || pat.dstIP != nil {
			s.AssignFresh(symexec.FieldSrcIP)
			s.AssignFresh(symexec.FieldDstIP)
		}
		if pat.srcPort != nil || pat.dstPort != nil {
			s.AssignFresh(symexec.FieldSrcPort)
			s.AssignFresh(symexec.FieldDstPort)
		}
		return []symexec.Transition{{Port: pat.revOut, S: s}}
	}
	if pat.srcIP != nil {
		s.Assign(symexec.FieldSrcIP, symexec.Const(uint64(*pat.srcIP)))
	}
	if pat.srcPort != nil {
		s.Assign(symexec.FieldSrcPort, symexec.Const(uint64(*pat.srcPort)))
	}
	if pat.dstIP != nil {
		s.Assign(symexec.FieldDstIP, symexec.Const(uint64(*pat.dstIP)))
	}
	if pat.dstPort != nil {
		s.Assign(symexec.FieldDstPort, symexec.Const(uint64(*pat.dstPort)))
	}
	return []symexec.Transition{{Port: pat.fwdOut, S: s}}
}

// DecIPTTL decrements the TTL, dropping expired packets (or emitting
// them on port 1 when wired).
type DecIPTTL struct {
	click.Base
	Expired uint64
}

// Class implements click.Element.
func (e *DecIPTTL) Class() string { return "DecIPTTL" }

// Configure implements click.Element.
func (e *DecIPTTL) Configure(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("DecIPTTL: takes no arguments")
	}
	return nil
}

// InPorts implements click.Element.
func (e *DecIPTTL) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *DecIPTTL) OutPorts() int { return 2 }

// Step implements click.Element.
func (e *DecIPTTL) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if p.TTL <= 1 {
		e.Expired++
		return 1
	}
	p.TTL--
	return 0
}

// Sym implements symexec.Model: the live branch gets a fresh TTL
// variable constrained to [1, 254] (symbolic arithmetic on the old
// value is out of model scope, matching SymNet's abstractions).
func (e *DecIPTTL) Sym(port int, s *symexec.State) []symexec.Transition {
	expired := s.Clone()
	var out []symexec.Transition
	if s.Constrain(symexec.FieldTTL, symexec.Span(2, 255)) {
		s.AssignFresh(symexec.FieldTTL)
		s.Constrain(symexec.FieldTTL, symexec.Span(1, 254))
		out = append(out, symexec.Transition{Port: 0, S: s})
	}
	if expired.Constrain(symexec.FieldTTL, symexec.Span(0, 1)) {
		out = append(out, symexec.Transition{Port: 1, S: expired})
	}
	return out
}

// routeEntry is one LPM route.
type routeEntry struct {
	prefix packet.Prefix
	port   int
}

// LookupIPRoute performs longest-prefix-match routing on the
// destination address:
//
//	LookupIPRoute(10.0.0.0/8 0, 0.0.0.0/0 1)
//
// Each argument is "PREFIX PORT". It is the element at the core of
// the IP Router row of Table 1 — a transparent middlebox that only
// the operator may run.
type LookupIPRoute struct {
	click.Base
	routes []routeEntry
	maxOut int
	Misses uint64
}

// Class implements click.Element.
func (e *LookupIPRoute) Class() string { return "LookupIPRoute" }

// Configure implements click.Element.
func (e *LookupIPRoute) Configure(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("LookupIPRoute: need at least one route")
	}
	for _, a := range args {
		f := strings.Fields(a)
		if len(f) != 2 {
			return fmt.Errorf("LookupIPRoute: want 'PREFIX PORT', got %q", a)
		}
		pfx, err := packet.ParsePrefix(f[0])
		if err != nil {
			return fmt.Errorf("LookupIPRoute: %v", err)
		}
		port, err := strconv.Atoi(f[1])
		if err != nil || port < 0 {
			return fmt.Errorf("LookupIPRoute: bad port %q", f[1])
		}
		if port > e.maxOut {
			e.maxOut = port
		}
		e.routes = append(e.routes, routeEntry{prefix: pfx, port: port})
	}
	// Longest prefix first for both runtime and symbolic LPM.
	sort.SliceStable(e.routes, func(i, j int) bool {
		return e.routes[i].prefix.Bits > e.routes[j].prefix.Bits
	})
	return nil
}

// InPorts implements click.Element.
func (e *LookupIPRoute) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *LookupIPRoute) OutPorts() int { return e.maxOut + 1 }

// Step implements click.Element: routing misses are counted and
// dropped.
func (e *LookupIPRoute) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	for _, r := range e.routes {
		if r.prefix.Contains(p.DstIP) {
			return click.Verdict(r.port)
		}
	}
	e.Misses++
	return click.Drop(click.DropNoRoute)
}

// Sym implements symexec.Model: LPM splits the flow per route, with
// each later (shorter) prefix refined by the complement of all
// earlier ones.
func (e *LookupIPRoute) Sym(port int, s *symexec.State) []symexec.Transition {
	var out []symexec.Transition
	pending := []*symexec.State{s}
	for _, r := range e.routes {
		lo, hi := r.prefix.Range()
		in := symexec.Span(uint64(lo), uint64(hi))
		notIn := in.Complement(32)
		var next []*symexec.State
		for _, st := range pending {
			m := st.Clone()
			if m.Constrain(symexec.FieldDstIP, in) {
				out = append(out, symexec.Transition{Port: r.port, S: m})
			}
			if st.Constrain(symexec.FieldDstIP, notIn) {
				next = append(next, st)
			}
		}
		pending = next
		if len(pending) == 0 {
			break
		}
	}
	return out
}
