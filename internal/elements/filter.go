package elements

import (
	"bytes"
	"fmt"
	"strings"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/flowspec"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("IPFilter", func() click.Element { return &IPFilter{} })
	click.Register("IPClassifier", func() click.Element { return &IPClassifier{} })
	click.Register("Classifier", func() click.Element { return &IPClassifier{alias: "Classifier"} })
	click.Register("DPI", func() click.Element { return &DPI{} })
}

// filterRule is one allow/deny rule with its complement precomputed
// for symbolic fall-through.
type filterRule struct {
	allow bool
	spec  *flowspec.Spec
	neg   *flowspec.Spec
}

// IPFilter filters packets with an ordered allow/deny rule list, e.g.
//
//	IPFilter(allow udp port 1500, deny net 10.0.0.0/8, allow all)
//
// The first matching rule decides; packets matching no rule are
// dropped (Click's IPFilter semantics). "drop" is a synonym of
// "deny".
type IPFilter struct {
	click.Base
	rules []filterRule
	// Dropped counts denied packets.
	Dropped uint64
}

// Class implements click.Element.
func (e *IPFilter) Class() string { return "IPFilter" }

// Configure implements click.Element.
func (e *IPFilter) Configure(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("IPFilter: need at least one rule")
	}
	for _, a := range args {
		fields := strings.Fields(a)
		if len(fields) == 0 {
			return fmt.Errorf("IPFilter: empty rule")
		}
		var allow bool
		switch strings.ToLower(fields[0]) {
		case "allow", "accept", "pass":
			allow = true
		case "deny", "drop", "reject":
			allow = false
		default:
			return fmt.Errorf("IPFilter: rule must start with allow/deny: %q", a)
		}
		rest := strings.Join(fields[1:], " ")
		spec, err := flowspec.Parse(rest)
		if err != nil {
			return fmt.Errorf("IPFilter: %v", err)
		}
		neg, err := spec.Negated()
		if err != nil {
			return fmt.Errorf("IPFilter: %v", err)
		}
		e.rules = append(e.rules, filterRule{allow: allow, spec: spec, neg: neg})
	}
	return nil
}

// InPorts implements click.Element.
func (e *IPFilter) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *IPFilter) OutPorts() int { return 1 }

// Step implements click.Element: the first matching rule decides.
func (e *IPFilter) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	for i := range e.rules {
		if e.rules[i].spec.Match(p) {
			if e.rules[i].allow {
				return 0
			}
			break
		}
	}
	e.Dropped++
	return click.Drop(click.DropFilter)
}

// Sym implements symexec.Model: each rule splits the incoming flow
// into a matched part (allowed or dropped) and a fall-through part
// refined by the rule's complement.
func (e *IPFilter) Sym(port int, s *symexec.State) []symexec.Transition {
	var out []symexec.Transition
	pending := []*symexec.State{s}
	for i := range e.rules {
		var next []*symexec.State
		for _, st := range pending {
			matched := e.rules[i].spec.Refine(st.Clone())
			if e.rules[i].allow {
				for _, m := range matched {
					out = append(out, symexec.Transition{Port: 0, S: m})
				}
			}
			next = append(next, e.rules[i].neg.Refine(st)...)
		}
		pending = next
		if len(pending) == 0 {
			break
		}
	}
	return out
}

// IPClassifier routes packets to the output port of the first
// matching pattern:
//
//	IPClassifier(dst host 10.0.0.1, udp, -)
//
// "-" matches everything (the default branch). Packets matching no
// pattern are dropped. Classifier is registered as an alias.
type IPClassifier struct {
	click.Base
	alias    string
	patterns []*flowspec.Spec
	negs     []*flowspec.Spec
	// Matched counts per-port matches.
	Matched []uint64
}

// Class implements click.Element.
func (e *IPClassifier) Class() string {
	if e.alias != "" {
		return e.alias
	}
	return "IPClassifier"
}

// Configure implements click.Element.
func (e *IPClassifier) Configure(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("%s: need at least one pattern", e.Class())
	}
	for _, a := range args {
		a = strings.TrimSpace(a)
		var spec *flowspec.Spec
		var err error
		if a == "-" {
			spec = flowspec.MatchAll()
		} else if spec, err = flowspec.Parse(a); err != nil {
			return fmt.Errorf("%s: %v", e.Class(), err)
		}
		neg, err := spec.Negated()
		if err != nil {
			return fmt.Errorf("%s: %v", e.Class(), err)
		}
		e.patterns = append(e.patterns, spec)
		e.negs = append(e.negs, neg)
	}
	e.Matched = make([]uint64, len(e.patterns))
	return nil
}

// InPorts implements click.Element.
func (e *IPClassifier) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *IPClassifier) OutPorts() int { return len(e.patterns) }

// Step implements click.Element.
func (e *IPClassifier) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	for i, spec := range e.patterns {
		if spec.Match(p) {
			e.Matched[i]++
			return click.Verdict(i)
		}
	}
	return click.Drop(click.DropNoRoute)
}

// Sym implements symexec.Model.
func (e *IPClassifier) Sym(port int, s *symexec.State) []symexec.Transition {
	var out []symexec.Transition
	pending := []*symexec.State{s}
	for i, spec := range e.patterns {
		var next []*symexec.State
		for _, st := range pending {
			for _, m := range spec.Refine(st.Clone()) {
				out = append(out, symexec.Transition{Port: i, S: m})
			}
			next = append(next, e.negs[i].Refine(st)...)
		}
		pending = next
		if len(pending) == 0 {
			break
		}
	}
	return out
}

// DPI inspects payloads for a byte pattern: matching packets exit
// port 1 (or are dropped when port 1 is unwired, firewall-style),
// clean packets exit port 0.
//
//	DPI("attack-signature")
type DPI struct {
	click.Base
	Pattern []byte
	// Hits counts matched packets.
	Hits uint64
}

// Class implements click.Element.
func (e *DPI) Class() string { return "DPI" }

// Configure implements click.Element.
func (e *DPI) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("DPI: want exactly 1 pattern")
	}
	pat := strings.Trim(args[0], `"`)
	if pat == "" {
		return fmt.Errorf("DPI: empty pattern")
	}
	e.Pattern = []byte(pat)
	return nil
}

// InPorts implements click.Element.
func (e *DPI) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *DPI) OutPorts() int { return 2 }

// Step implements click.Element.
func (e *DPI) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if bytes.Contains(p.Payload, e.Pattern) {
		e.Hits++
		return 1
	}
	return 0
}

// Sym implements symexec.Model: payload contents are opaque to the
// symbolic engine, so DPI is a may-branch — the flow can take either
// port, with headers unchanged. This is a sound over-approximation.
func (e *DPI) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{
		{Port: 0, S: s.Clone()},
		{Port: 1, S: s},
	}
}
