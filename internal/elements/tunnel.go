package elements

import (
	"fmt"
	"strconv"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("UDPIPEncap", func() click.Element { return &UDPIPEncap{} })
	click.Register("IPDecap", func() click.Element { return &IPDecap{} })
}

// UDPIPEncap encapsulates the entire packet as the payload of a new
// UDP/IP packet with configured outer headers:
//
//	UDPIPEncap(10.0.0.1 5000 192.0.2.9 5000)
type UDPIPEncap struct {
	click.Base
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
}

// Class implements click.Element.
func (e *UDPIPEncap) Class() string { return "UDPIPEncap" }

// Configure implements click.Element.
func (e *UDPIPEncap) Configure(args []string) error {
	fields := args
	if len(args) == 1 {
		fields = splitWS(args[0])
	}
	if len(fields) != 4 {
		return fmt.Errorf("UDPIPEncap: want SRC SPORT DST DPORT")
	}
	var err error
	if e.SrcIP, err = packet.ParseIP(fields[0]); err != nil {
		return fmt.Errorf("UDPIPEncap: %v", err)
	}
	sp, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return fmt.Errorf("UDPIPEncap: bad sport %q", fields[1])
	}
	if e.DstIP, err = packet.ParseIP(fields[2]); err != nil {
		return fmt.Errorf("UDPIPEncap: %v", err)
	}
	dp, err := strconv.ParseUint(fields[3], 10, 16)
	if err != nil {
		return fmt.Errorf("UDPIPEncap: bad dport %q", fields[3])
	}
	e.SrcPort, e.DstPort = uint16(sp), uint16(dp)
	return nil
}

func splitWS(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' || r == '\t' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// InPorts implements click.Element.
func (e *UDPIPEncap) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *UDPIPEncap) OutPorts() int { return 1 }

// Step implements click.Element: the inner packet is serialized into
// the outer payload.
func (e *UDPIPEncap) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	inner := p.Serialize(nil)
	p.Payload = inner
	p.SrcIP, p.DstIP = e.SrcIP, e.DstIP
	p.SrcPort, p.DstPort = e.SrcPort, e.DstPort
	p.Protocol = packet.ProtoUDP
	p.TTL = 64
	return 0
}

// Sym implements symexec.Model: the outer headers become constants
// and the payload is redefined (it now carries the whole inner
// packet).
func (e *UDPIPEncap) Sym(port int, s *symexec.State) []symexec.Transition {
	s.Assign(symexec.FieldSrcIP, symexec.Const(uint64(e.SrcIP)))
	s.Assign(symexec.FieldDstIP, symexec.Const(uint64(e.DstIP)))
	s.Assign(symexec.FieldSrcPort, symexec.Const(uint64(e.SrcPort)))
	s.Assign(symexec.FieldDstPort, symexec.Const(uint64(e.DstPort)))
	s.Assign(symexec.FieldProto, symexec.Const(uint64(packet.ProtoUDP)))
	s.AssignFresh(symexec.FieldPayload)
	return []symexec.Transition{{Port: 0, S: s}}
}

// IPDecap decapsulates: the payload is parsed as a full IP packet
// which replaces the outer one. This is the element behind Table 1's
// tunnel row: the inner destination is only known at runtime, so
// static checking must flag the module for sandboxing.
type IPDecap struct {
	click.Base
	Malformed uint64
}

// Class implements click.Element.
func (e *IPDecap) Class() string { return "IPDecap" }

// Configure implements click.Element.
func (e *IPDecap) Configure(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("IPDecap: takes no arguments")
	}
	return nil
}

// InPorts implements click.Element.
func (e *IPDecap) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *IPDecap) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *IPDecap) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	var inner packet.Packet
	if err := inner.Parse(p.Payload); err != nil {
		e.Malformed++
		return click.Drop(click.DropFilter)
	}
	inner.Timestamp = p.Timestamp
	inner.UserID = p.UserID
	*p = *inner.Clone()
	return 0
}

// Sym implements symexec.Model: every header of the decapsulated
// packet comes from the (opaque) payload, so all fields become fresh
// free variables. In particular ip_dst is neither a whitelist
// constant nor bound to the ingress source — the "sometimes
// conforming" case that forces sandboxing (§7.1).
func (e *IPDecap) Sym(port int, s *symexec.State) []symexec.Transition {
	for _, f := range []symexec.Field{
		symexec.FieldSrcIP, symexec.FieldDstIP, symexec.FieldProto,
		symexec.FieldSrcPort, symexec.FieldDstPort, symexec.FieldTTL,
		symexec.FieldTOS, symexec.FieldPayload,
	} {
		s.AssignFresh(f)
	}
	return []symexec.Transition{{Port: 0, S: s}}
}
