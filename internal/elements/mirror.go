package elements

import (
	"fmt"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("IPMirror", func() click.Element { return &IPMirror{} })
}

// IPMirror swaps source and destination addresses and ports — the
// respond-to-sender primitive used by server-style modules (DNS
// server, reverse proxy, the paper's §3 server that "responds to
// customers with the same packet, by flipping the source and
// destination addresses").
type IPMirror struct {
	click.Base
}

// Class implements click.Element.
func (e *IPMirror) Class() string { return "IPMirror" }

// Configure implements click.Element.
func (e *IPMirror) Configure(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("IPMirror: takes no arguments")
	}
	return nil
}

// InPorts implements click.Element.
func (e *IPMirror) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *IPMirror) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *IPMirror) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	p.SrcIP, p.DstIP = p.DstIP, p.SrcIP
	p.SrcPort, p.DstPort = p.DstPort, p.SrcPort
	return 0
}

// Sym implements symexec.Model: the swap is the exact aliasing trick
// of the paper's Fig. 2 — after it, ip_dst is bound to the variable
// ip_src was bound to, which is how the controller later proves the
// implicit-authorization rule holds.
func (e *IPMirror) Sym(port int, s *symexec.State) []symexec.Transition {
	oldSrc, oldDst := s.Get(symexec.FieldSrcIP), s.Get(symexec.FieldDstIP)
	s.Assign(symexec.FieldSrcIP, oldDst)
	s.Assign(symexec.FieldDstIP, oldSrc)
	oldSP, oldDP := s.Get(symexec.FieldSrcPort), s.Get(symexec.FieldDstPort)
	s.Assign(symexec.FieldSrcPort, oldDP)
	s.Assign(symexec.FieldDstPort, oldSP)
	return []symexec.Transition{{Port: 0, S: s}}
}
