package elements

import (
	"fmt"
	"strconv"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("RoundRobinSwitch", func() click.Element { return &RoundRobinSwitch{} })
	click.Register("HashSwitch", func() click.Element { return &HashSwitch{} })
	click.Register("ICMPPingResponder", func() click.Element { return &ICMPPingResponder{} })
	click.Register("SetSrcPort", func() click.Element { return &SetPort{src: true} })
	click.Register("SetDstPort", func() click.Element { return &SetPort{} })
	click.Register("SetIPTTL", func() click.Element { return &SetIPTTL{} })
}

// RoundRobinSwitch spreads packets across N outputs in rotation — the
// fan-out stage of software load balancers:
//
//	RoundRobinSwitch(4)
type RoundRobinSwitch struct {
	click.Base
	N    int
	next int
}

// Class implements click.Element.
func (e *RoundRobinSwitch) Class() string { return "RoundRobinSwitch" }

// Configure implements click.Element.
func (e *RoundRobinSwitch) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("RoundRobinSwitch: want N")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 1 || n > 256 {
		return fmt.Errorf("RoundRobinSwitch: bad N %q", args[0])
	}
	e.N = n
	return nil
}

// InPorts implements click.Element.
func (e *RoundRobinSwitch) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *RoundRobinSwitch) OutPorts() int { return e.N }

// Step implements click.Element.
func (e *RoundRobinSwitch) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	out := e.next
	e.next = (e.next + 1) % e.N
	return click.Verdict(out)
}

// Sym implements symexec.Model: which output a packet takes depends
// on arrival order, which the static model cannot know — a may-branch
// to every output (sound over-approximation).
func (e *RoundRobinSwitch) Sym(port int, s *symexec.State) []symexec.Transition {
	out := make([]symexec.Transition, 0, e.N)
	for i := 0; i < e.N; i++ {
		st := s
		if i < e.N-1 {
			st = s.Clone()
		}
		out = append(out, symexec.Transition{Port: i, S: st})
	}
	return out
}

// HashSwitch spreads packets across N outputs by five-tuple hash, so
// a flow's packets stay on one output:
//
//	HashSwitch(4)
type HashSwitch struct {
	click.Base
	N int
}

// Class implements click.Element.
func (e *HashSwitch) Class() string { return "HashSwitch" }

// Configure implements click.Element.
func (e *HashSwitch) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("HashSwitch: want N")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 1 || n > 256 {
		return fmt.Errorf("HashSwitch: bad N %q", args[0])
	}
	e.N = n
	return nil
}

// InPorts implements click.Element.
func (e *HashSwitch) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *HashSwitch) OutPorts() int { return e.N }

// Step implements click.Element: the output port is the five-tuple's
// hash modulo N.
func (e *HashSwitch) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	t := p.Tuple()
	// FNV-1a over the tuple fields.
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= 16777619
			v >>= 8
		}
	}
	mix(t.SrcIP)
	mix(t.DstIP)
	mix(uint32(t.SrcPort)<<16 | uint32(t.DstPort))
	mix(uint32(t.Protocol))
	return click.Verdict(h % uint32(e.N))
}

// Sym implements symexec.Model: a may-branch, like RoundRobinSwitch.
func (e *HashSwitch) Sym(port int, s *symexec.State) []symexec.Transition {
	out := make([]symexec.Transition, 0, e.N)
	for i := 0; i < e.N; i++ {
		st := s
		if i < e.N-1 {
			st = s.Clone()
		}
		out = append(out, symexec.Transition{Port: i, S: st})
	}
	return out
}

// ICMPPingResponder answers ICMP echo requests (swapping addresses);
// non-ICMP traffic passes through on port 1 if wired, else is
// dropped. This is the responder behind the Fig. 5 experiment's
// middle boxes.
type ICMPPingResponder struct {
	click.Base
	Replies uint64
}

// Class implements click.Element.
func (e *ICMPPingResponder) Class() string { return "ICMPPingResponder" }

// Configure implements click.Element.
func (e *ICMPPingResponder) Configure(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("ICMPPingResponder: takes no arguments")
	}
	return nil
}

// InPorts implements click.Element.
func (e *ICMPPingResponder) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *ICMPPingResponder) OutPorts() int { return 2 }

// Step implements click.Element.
func (e *ICMPPingResponder) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if p.Protocol != packet.ProtoICMP {
		return 1
	}
	e.Replies++
	p.SrcIP, p.DstIP = p.DstIP, p.SrcIP
	return 0
}

// Sym implements symexec.Model.
func (e *ICMPPingResponder) Sym(port int, s *symexec.State) []symexec.Transition {
	rest := s.Clone()
	var out []symexec.Transition
	if s.Constrain(symexec.FieldProto, symexec.Single(uint64(packet.ProtoICMP))) {
		oldSrc, oldDst := s.Get(symexec.FieldSrcIP), s.Get(symexec.FieldDstIP)
		s.Assign(symexec.FieldSrcIP, oldDst)
		s.Assign(symexec.FieldDstIP, oldSrc)
		out = append(out, symexec.Transition{Port: 0, S: s})
	}
	notICMP := symexec.Single(uint64(packet.ProtoICMP)).Complement(8)
	if rest.Constrain(symexec.FieldProto, notICMP) {
		out = append(out, symexec.Transition{Port: 1, S: rest})
	}
	return out
}

// SetPort overwrites the source or destination transport port.
// Registered as SetSrcPort and SetDstPort.
type SetPort struct {
	click.Base
	src  bool
	Port uint16
}

// Class implements click.Element.
func (e *SetPort) Class() string {
	if e.src {
		return "SetSrcPort"
	}
	return "SetDstPort"
}

// Configure implements click.Element.
func (e *SetPort) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("%s: want exactly 1 arg", e.Class())
	}
	n, err := strconv.ParseUint(args[0], 10, 16)
	if err != nil {
		return fmt.Errorf("%s: bad port %q", e.Class(), args[0])
	}
	e.Port = uint16(n)
	return nil
}

// InPorts implements click.Element.
func (e *SetPort) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *SetPort) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *SetPort) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if e.src {
		p.SrcPort = e.Port
	} else {
		p.DstPort = e.Port
	}
	return 0
}

// Sym implements symexec.Model.
func (e *SetPort) Sym(port int, s *symexec.State) []symexec.Transition {
	f := symexec.FieldDstPort
	if e.src {
		f = symexec.FieldSrcPort
	}
	s.Assign(f, symexec.Const(uint64(e.Port)))
	return []symexec.Transition{{Port: 0, S: s}}
}

// SetIPTTL overwrites the TTL (tunnel entry points do this).
type SetIPTTL struct {
	click.Base
	TTL uint8
}

// Class implements click.Element.
func (e *SetIPTTL) Class() string { return "SetIPTTL" }

// Configure implements click.Element.
func (e *SetIPTTL) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("SetIPTTL: want exactly 1 arg")
	}
	n, err := strconv.ParseUint(args[0], 10, 8)
	if err != nil || n == 0 {
		return fmt.Errorf("SetIPTTL: bad TTL %q", args[0])
	}
	e.TTL = uint8(n)
	return nil
}

// InPorts implements click.Element.
func (e *SetIPTTL) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *SetIPTTL) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *SetIPTTL) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	p.TTL = e.TTL
	return 0
}

// Sym implements symexec.Model.
func (e *SetIPTTL) Sym(port int, s *symexec.State) []symexec.Transition {
	s.Assign(symexec.FieldTTL, symexec.Const(uint64(e.TTL)))
	return []symexec.Transition{{Port: 0, S: s}}
}
