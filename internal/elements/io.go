// Package elements implements the standard Click element classes the
// In-Net platform offers to tenants (paper §4.1: "hundreds of
// elements"; we implement the set the paper's configurations and
// evaluation exercise, plus supporting classes).
//
// Every element provides both a runtime implementation (Step) and a
// symbolic model (Sym) so that the exact same configured instance is
// used by the dataplane and by the controller's static checking. Step
// is the class's only per-packet code, and the graph walk (click.Push)
// is its only driver: pipeline.Exec runs every module through it. The
// few classes
// that also move packets outside Step — on a tick, a pull or a wake-up —
// are listed with their reasons in outsideStep (step_test.go).
package elements

import (
	"fmt"
	"hash/crc32"
	"strconv"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("FromNetfront", func() click.Element { return &FromNetfront{} })
	click.Register("FromDevice", func() click.Element { return &FromNetfront{} })
	click.Register("ToNetfront", func() click.Element { return &ToNetfront{} })
	click.Register("ToDevice", func() click.Element { return &ToNetfront{} })
	click.Register("Discard", func() click.Element { return &Discard{} })
	click.Register("Counter", func() click.Element { return &Counter{} })
	click.Register("Tee", func() click.Element { return &Tee{} })
	click.Register("Paint", func() click.Element { return &Paint{} })
	click.Register("CheckPaint", func() click.Element { return &CheckPaint{} })
	click.Register("SetIPSrc", func() click.Element { return &SetIPField{field: symexec.FieldSrcIP} })
	click.Register("SetIPDst", func() click.Element { return &SetIPField{field: symexec.FieldDstIP} })
	click.Register("SetTOS", func() click.Element { return &SetTOS{} })
	click.Register("SetCRC32", func() click.Element { return &SetCRC32{} })
	click.Register("CheckIPHeader", func() click.Element { return &CheckIPHeader{} })
}

// FromNetfront is the module's ingress: packets arriving from the
// platform's back-end switch enter the configuration here. The
// optional argument is the interface index.
type FromNetfront struct {
	click.Base
	Iface int
}

// Class implements click.Element.
func (e *FromNetfront) Class() string { return "FromNetfront" }

// Configure implements click.Element.
func (e *FromNetfront) Configure(args []string) error {
	if len(args) > 1 {
		return fmt.Errorf("FromNetfront: want at most 1 arg, got %d", len(args))
	}
	if len(args) == 1 && args[0] != "" {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return fmt.Errorf("FromNetfront: bad interface %q", args[0])
		}
		e.Iface = n
	}
	return nil
}

// InPorts implements click.Element.
func (e *FromNetfront) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *FromNetfront) OutPorts() int { return 1 }

// InjectionPoint marks this element as a module entry.
func (e *FromNetfront) InjectionPoint() bool { return true }

// Step implements click.Element.
func (e *FromNetfront) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	return 0
}

// Sym implements symexec.Model.
func (e *FromNetfront) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}

// ToNetfront is the module's egress: packets leaving here are handed
// to the platform's back-end switch. The optional argument is the
// interface index.
type ToNetfront struct {
	click.Base
	Iface int
	// TxCount counts transmitted packets.
	TxCount uint64
}

// Class implements click.Element.
func (e *ToNetfront) Class() string { return "ToNetfront" }

// Configure implements click.Element.
func (e *ToNetfront) Configure(args []string) error {
	if len(args) > 1 {
		return fmt.Errorf("ToNetfront: want at most 1 arg, got %d", len(args))
	}
	if len(args) == 1 && args[0] != "" {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return fmt.Errorf("ToNetfront: bad interface %q", args[0])
		}
		e.Iface = n
	}
	return nil
}

// InPorts implements click.Element.
func (e *ToNetfront) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *ToNetfront) OutPorts() int { return 0 }

// Step implements click.Element.
func (e *ToNetfront) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	e.TxCount++
	return click.Tx(e.Iface)
}

// Sym implements symexec.Model: flows exit the module here, so the
// transition leaves through (unwired) port 0 and becomes an egress.
func (e *ToNetfront) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}

// Discard drops every packet.
type Discard struct {
	click.Base
	// Count counts discarded packets.
	Count uint64
}

// Class implements click.Element.
func (e *Discard) Class() string { return "Discard" }

// Configure implements click.Element.
func (e *Discard) Configure(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("Discard: takes no arguments")
	}
	return nil
}

// InPorts implements click.Element.
func (e *Discard) InPorts() int { return click.AnyPorts }

// OutPorts implements click.Element.
func (e *Discard) OutPorts() int { return 0 }

// Step implements click.Element.
func (e *Discard) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	e.Count++
	return click.Drop(click.DropDiscard)
}

// Sym implements symexec.Model.
func (e *Discard) Sym(port int, s *symexec.State) []symexec.Transition { return nil }

// Counter counts packets and bytes passing through.
type Counter struct {
	click.Base
	Packets uint64
	Bytes   uint64
}

// Class implements click.Element.
func (e *Counter) Class() string { return "Counter" }

// Configure implements click.Element.
func (e *Counter) Configure(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("Counter: takes no arguments")
	}
	return nil
}

// InPorts implements click.Element.
func (e *Counter) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *Counter) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *Counter) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	e.Packets++
	e.Bytes += uint64(p.Len())
	return 0
}

// Sym implements symexec.Model.
func (e *Counter) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}

// Tee duplicates each packet to N output ports (the paper's multicast
// row in Table 1). The argument is N (default 2).
type Tee struct {
	click.Base
	N int
}

// Class implements click.Element.
func (e *Tee) Class() string { return "Tee" }

// Configure implements click.Element.
func (e *Tee) Configure(args []string) error {
	e.N = 2
	if len(args) > 1 {
		return fmt.Errorf("Tee: want at most 1 arg")
	}
	if len(args) == 1 && args[0] != "" {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 || n > 256 {
			return fmt.Errorf("Tee: bad branch count %q", args[0])
		}
		e.N = n
	}
	return nil
}

// InPorts implements click.Element.
func (e *Tee) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *Tee) OutPorts() int { return e.N }

// Step implements click.Element: copies leave on ports 1..N-1 first,
// then the original continues on port 0.
func (e *Tee) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	for i := 1; i < e.N; i++ {
		if e.Connected(i) {
			env.Emit(e, i, p.Clone())
		}
	}
	return 0
}

// Sym implements symexec.Model.
func (e *Tee) Sym(port int, s *symexec.State) []symexec.Transition {
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

// Paint sets the paint annotation.
type Paint struct {
	click.Base
	Color uint8
}

// Class implements click.Element.
func (e *Paint) Class() string { return "Paint" }

// Configure implements click.Element.
func (e *Paint) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("Paint: want exactly 1 arg")
	}
	n, err := strconv.ParseUint(args[0], 10, 8)
	if err != nil {
		return fmt.Errorf("Paint: bad color %q", args[0])
	}
	e.Color = uint8(n)
	return nil
}

// InPorts implements click.Element.
func (e *Paint) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *Paint) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *Paint) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	p.Paint = e.Color
	return 0
}

// Sym implements symexec.Model.
func (e *Paint) Sym(port int, s *symexec.State) []symexec.Transition {
	s.Assign(symexec.FieldPaint, symexec.Const(uint64(e.Color)))
	return []symexec.Transition{{Port: 0, S: s}}
}

// CheckPaint forwards packets with the configured paint to port 0 and
// all others to port 1 (or drops them if port 1 is unwired).
type CheckPaint struct {
	click.Base
	Color uint8
}

// Class implements click.Element.
func (e *CheckPaint) Class() string { return "CheckPaint" }

// Configure implements click.Element.
func (e *CheckPaint) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("CheckPaint: want exactly 1 arg")
	}
	n, err := strconv.ParseUint(args[0], 10, 8)
	if err != nil {
		return fmt.Errorf("CheckPaint: bad color %q", args[0])
	}
	e.Color = uint8(n)
	return nil
}

// InPorts implements click.Element.
func (e *CheckPaint) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *CheckPaint) OutPorts() int { return 2 }

// Step implements click.Element.
func (e *CheckPaint) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if p.Paint == e.Color {
		return 0
	}
	return 1
}

// Sym implements symexec.Model.
func (e *CheckPaint) Sym(port int, s *symexec.State) []symexec.Transition {
	match := s.Clone()
	var out []symexec.Transition
	if match.Constrain(symexec.FieldPaint, symexec.Single(uint64(e.Color))) {
		out = append(out, symexec.Transition{Port: 0, S: match})
	}
	if s.Constrain(symexec.FieldPaint, symexec.Single(uint64(e.Color)).Complement(8)) {
		out = append(out, symexec.Transition{Port: 1, S: s})
	}
	return out
}

// SetIPField overwrites the source or destination IP address.
// Registered as SetIPSrc and SetIPDst.
type SetIPField struct {
	click.Base
	field symexec.Field
	Addr  uint32
}

// Class implements click.Element.
func (e *SetIPField) Class() string {
	if e.field == symexec.FieldSrcIP {
		return "SetIPSrc"
	}
	return "SetIPDst"
}

// Configure implements click.Element.
func (e *SetIPField) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("%s: want exactly 1 arg", e.Class())
	}
	ip, err := packet.ParseIP(args[0])
	if err != nil {
		return fmt.Errorf("%s: %v", e.Class(), err)
	}
	e.Addr = ip
	return nil
}

// InPorts implements click.Element.
func (e *SetIPField) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *SetIPField) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *SetIPField) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if e.field == symexec.FieldSrcIP {
		p.SrcIP = e.Addr
	} else {
		p.DstIP = e.Addr
	}
	return 0
}

// Sym implements symexec.Model.
func (e *SetIPField) Sym(port int, s *symexec.State) []symexec.Transition {
	s.Assign(e.field, symexec.Const(uint64(e.Addr)))
	return []symexec.Transition{{Port: 0, S: s}}
}

// SetTOS overwrites the IP TOS byte.
type SetTOS struct {
	click.Base
	TOS uint8
}

// Class implements click.Element.
func (e *SetTOS) Class() string { return "SetTOS" }

// Configure implements click.Element.
func (e *SetTOS) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("SetTOS: want exactly 1 arg")
	}
	n, err := strconv.ParseUint(args[0], 0, 8)
	if err != nil {
		return fmt.Errorf("SetTOS: bad value %q", args[0])
	}
	e.TOS = uint8(n)
	return nil
}

// InPorts implements click.Element.
func (e *SetTOS) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *SetTOS) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *SetTOS) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	p.TOS = e.TOS
	return 0
}

// Sym implements symexec.Model.
func (e *SetTOS) Sym(port int, s *symexec.State) []symexec.Transition {
	s.Assign(symexec.FieldTOS, symexec.Const(uint64(e.TOS)))
	return []symexec.Transition{{Port: 0, S: s}}
}

// SetCRC32 computes a CRC over the payload, touching every payload
// byte (used by the sandboxing-cost experiment to give packets a
// realistic per-byte processing cost).
type SetCRC32 struct {
	click.Base
	// Last holds the most recent CRC (handler-readable).
	Last uint32
}

// Class implements click.Element.
func (e *SetCRC32) Class() string { return "SetCRC32" }

// Configure implements click.Element.
func (e *SetCRC32) Configure(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("SetCRC32: takes no arguments")
	}
	return nil
}

// InPorts implements click.Element.
func (e *SetCRC32) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *SetCRC32) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *SetCRC32) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	e.Last = crc32.ChecksumIEEE(p.Payload)
	p.FlowTag = e.Last
	return 0
}

// Sym implements symexec.Model: the payload itself is unchanged.
func (e *SetCRC32) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}

// CheckIPHeader drops malformed packets (TTL 0, zero addresses) and
// forwards the rest; invalid packets go to port 1 if wired.
type CheckIPHeader struct {
	click.Base
	Drops uint64
}

// Class implements click.Element.
func (e *CheckIPHeader) Class() string { return "CheckIPHeader" }

// Configure implements click.Element.
func (e *CheckIPHeader) Configure(args []string) error { return nil }

// InPorts implements click.Element.
func (e *CheckIPHeader) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *CheckIPHeader) OutPorts() int { return 2 }

// Step implements click.Element.
func (e *CheckIPHeader) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if p.TTL == 0 || p.SrcIP == 0 || p.DstIP == 0 {
		e.Drops++
		return 1
	}
	return 0
}

// Sym implements symexec.Model.
func (e *CheckIPHeader) Sym(port int, s *symexec.State) []symexec.Transition {
	bad := s.Clone()
	var out []symexec.Transition
	if s.Constrain(symexec.FieldTTL, symexec.Span(1, 255)) {
		out = append(out, symexec.Transition{Port: 0, S: s})
	}
	if bad.Constrain(symexec.FieldTTL, symexec.Single(0)) {
		out = append(out, symexec.Transition{Port: 1, S: bad})
	}
	return out
}
