package elements

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("TimedSource", func() click.Element { return &TimedSource{} })
	click.Register("Meter", func() click.Element { return &Meter{} })
	click.Register("RandomSample", func() click.Element { return &RandomSample{} })
}

// TimedSource emits a fresh UDP packet every INTERVAL seconds:
//
//	TimedSource(5, "keepalive")
//
// The emitted source address is unspecified (zero) unless a
// downstream SetIPSrc pins it — which is exactly what the security
// checker demands: a tenant module containing a TimedSource is
// rejected for spoofing unless the module stamps its own address on
// the generated traffic.
type TimedSource struct {
	click.Base
	IntervalNS int64
	Payload    []byte
	next       int64
	// Emitted counts generated packets.
	Emitted uint64
}

// Class implements click.Element.
func (e *TimedSource) Class() string { return "TimedSource" }

// Configure implements click.Element.
func (e *TimedSource) Configure(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("TimedSource: want INTERVAL [DATA]")
	}
	sec, err := strconv.ParseFloat(args[0], 64)
	if err != nil || sec <= 0 {
		return fmt.Errorf("TimedSource: bad interval %q", args[0])
	}
	e.IntervalNS = int64(sec * 1e9)
	if len(args) == 2 {
		e.Payload = []byte(strings.Trim(args[1], `"`))
	}
	return nil
}

// InPorts implements click.Element.
func (e *TimedSource) InPorts() int { return 0 }

// OutPorts implements click.Element.
func (e *TimedSource) OutPorts() int { return 1 }

// Step implements click.Element (sources take no input).
func (e *TimedSource) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	return click.Drop(click.DropDiscard)
}

// Tick implements click.Ticker: emit when due.
func (e *TimedSource) Tick(ctx *click.Context) int64 {
	now := ctx.Now()
	if e.next == 0 {
		e.next = now + e.IntervalNS
		return e.IntervalNS
	}
	if now < e.next {
		return e.next - now
	}
	e.Emitted++
	pk := &packet.Packet{
		Protocol: packet.ProtoUDP,
		TTL:      64,
		Payload:  append([]byte(nil), e.Payload...),
	}
	e.Out(ctx, 0, pk)
	e.next = now + e.IntervalNS
	return e.IntervalNS
}

// Sym implements symexec.Model. A source's output fields are fresh
// (runtime-chosen) values; in particular ip_src is NOT the ingress
// source variable, so the anti-spoofing rule fails unless the module
// pins it afterwards.
func (e *TimedSource) Sym(port int, s *symexec.State) []symexec.Transition {
	for _, f := range []symexec.Field{
		symexec.FieldSrcIP, symexec.FieldDstIP, symexec.FieldSrcPort,
		symexec.FieldDstPort, symexec.FieldPayload,
	} {
		s.AssignFresh(f)
	}
	s.Assign(symexec.FieldProto, symexec.Const(uint64(packet.ProtoUDP)))
	s.Assign(symexec.FieldTTL, symexec.Const(64))
	return []symexec.Transition{{Port: 0, S: s}}
}

// Meter classifies by measured rate: traffic under RATE packets/s
// exits port 0, excess exits port 1 (Click's Meter):
//
//	Meter(1000)
type Meter struct {
	click.Base
	PPS     float64
	tokens  float64
	last    int64
	started bool
	// Over counts packets classified over-rate.
	Over uint64
}

// Class implements click.Element.
func (e *Meter) Class() string { return "Meter" }

// Configure implements click.Element.
func (e *Meter) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("Meter: want RATE")
	}
	r, err := strconv.ParseFloat(args[0], 64)
	if err != nil || r <= 0 {
		return fmt.Errorf("Meter: bad rate %q", args[0])
	}
	e.PPS = r
	e.tokens = r
	return nil
}

// InPorts implements click.Element.
func (e *Meter) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *Meter) OutPorts() int { return 2 }

// Step implements click.Element: charge the token bucket and leave on
// port 0 under rate, port 1 over rate (counted).
func (e *Meter) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	now := env.Now()
	if e.started {
		e.tokens += float64(now-e.last) / 1e9 * e.PPS
		if e.tokens > e.PPS {
			e.tokens = e.PPS
		}
	}
	e.started = true
	e.last = now
	if e.tokens >= 1 {
		e.tokens--
		return 0
	}
	e.Over++
	return 1
}

// Sym implements symexec.Model: rate is a runtime property, so the
// flow may take either port (headers unchanged).
func (e *Meter) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{
		{Port: 0, S: s.Clone()},
		{Port: 1, S: s},
	}
}

// RandomSample forwards a random fraction of traffic to port 0 (the
// sample) and the rest to port 1 (or drops it when port 1 is
// unwired) — the monitoring-tap element:
//
//	RandomSample(0.01)
type RandomSample struct {
	click.Base
	P float64
	// lcg is a tiny deterministic PRNG so the dataplane needs no
	// shared rand state.
	lcg uint64
	// Sampled counts sampled packets.
	Sampled uint64
}

// Class implements click.Element.
func (e *RandomSample) Class() string { return "RandomSample" }

// Configure implements click.Element.
func (e *RandomSample) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("RandomSample: want P")
	}
	p, err := strconv.ParseFloat(args[0], 64)
	if err != nil || p < 0 || p > 1 {
		return fmt.Errorf("RandomSample: bad probability %q", args[0])
	}
	e.P = p
	e.lcg = 0x2545F4914F6CDD1D
	return nil
}

// InPorts implements click.Element.
func (e *RandomSample) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *RandomSample) OutPorts() int { return 2 }

// Step implements click.Element.
func (e *RandomSample) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	e.lcg = e.lcg*6364136223846793005 + 1442695040888963407
	u := float64(e.lcg>>11) / float64(1<<53)
	if u < e.P {
		e.Sampled++
		return 0
	}
	return 1
}

// Sym implements symexec.Model: a may-branch.
func (e *RandomSample) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{
		{Port: 0, S: s.Clone()},
		{Port: 1, S: s},
	}
}
