// Package click implements a Click-modular-router-style element
// framework: packet-processing elements with numbered input and output
// ports, wired into configuration graphs parsed by clicklang.
//
// In-Net processing modules are Click configurations (paper §2, §4.1).
// The runtime here is push-based, as ClickOS dataplanes predominantly
// are: a packet enters through a FromNetfront element and flows
// synchronously through the graph until it is transmitted, queued or
// dropped. Elements that emit packets on their own schedule (queues
// drained by TimedUnqueue, rate limiters) implement Ticker and are
// driven by the owner of the router (dataplane loop or simulator).
//
// Each element class defines its per-packet behaviour exactly once, in
// Step. Two drivers run it: Push here (the graph walk, following
// click.Target wiring) and pipeline.Exec (the same walk over a
// pre-resolved stage table).
package click

import (
	"fmt"
	"sort"
	"sync"

	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/packet"
)

// Context carries the runtime environment an element sees while
// processing a packet. It is provided by the dataplane or simulator
// driving the router; elements must not retain it across calls.
type Context struct {
	// Now returns the current time in nanoseconds (virtual or wall).
	Now func() int64
	// Transmit delivers a packet leaving the module through the
	// ToNetfront element with the given interface index.
	Transmit func(iface int, p *packet.Packet)
	// DropHook, if non-nil, observes every dropped packet (packets
	// pushed to an unconnected port or discarded by an element).
	DropHook func(p *packet.Packet)
	// PathHook, if non-nil, observes every Step of the graph walk: the
	// element, the port the packet arrived on, the output port the
	// element chose (-1 when it consumed the packet) and what became
	// of the packet. The sampled path tracer arms it per traced packet;
	// when unset each step pays one nil check.
	PathHook func(elem string, inPort, outPort int, v Verdict, p *packet.Packet)
	// Pool recycles dropped packets when non-nil.
	Pool *packet.Pool
}

// Drop disposes of a packet.
func (c *Context) Drop(p *packet.Packet) {
	if c.DropHook != nil {
		c.DropHook(p)
	}
	if c.Pool != nil {
		c.Pool.Put(p)
	}
}

// Element is a unit of packet processing.
type Element interface {
	// Class returns the Click class name (e.g. "IPFilter").
	Class() string
	// Configure applies the comma-separated configuration arguments.
	Configure(args []string) error
	// InPorts and OutPorts return the number of ports after
	// Configure; AnyPorts (-1) means any number is accepted.
	InPorts() int
	OutPorts() int
	// Step is the class's whole per-packet behaviour: it processes a
	// packet arriving on an input port and returns the output port the
	// packet continues on, or a consumed verdict (Tx, Held, Drop). It
	// must not forward, transmit or dispose of the packet itself — the
	// driver acts on the verdict.
	Step(env Env, port int, p *packet.Packet) Verdict

	// Name and wiring, implemented by embedding Base.
	Name() string
	SetName(string)
	SetOutput(port int, t Target) error
	Wiring() *Base
}

// Env is what a Step may ask of the driver running it.
type Env interface {
	// Now returns the current time in nanoseconds (virtual or wall).
	Now() int64
	// Emit sends an extra packet (a Tee copy) out of from's output
	// port and runs it to its verdict before returning.
	Emit(from Element, port int, p *packet.Packet)
}

// AnyPorts marks a variable port count.
const AnyPorts = -1

// Target is the destination of an output port.
type Target struct {
	Elem Element
	Port int
	// base is Elem.Wiring(), cached by SetOutput so the graph walk
	// follows an edge without a second interface call per hop.
	base *Base
}

// Ticker is implemented by elements that need periodic scheduling
// (e.g. TimedUnqueue, RatedUnqueue). Tick performs due work at the
// context's current time and returns the delay in nanoseconds until
// the next tick, or a negative value if the element is idle.
type Ticker interface {
	Tick(ctx *Context) int64
}

// Puller is implemented by elements whose outputs can be pulled from
// (Click's pull ports): Queue is the canonical example. Pull returns
// the next packet or nil.
type Puller interface {
	Pull(ctx *Context, port int) *packet.Packet
}

// UpstreamSetter is implemented by elements with pull *inputs*
// (Click's Unqueue): during Build, when a Puller's output is wired to
// such an element's input, the framework hands it the upstream so it
// can pull on its own schedule.
type UpstreamSetter interface {
	SetUpstream(port int, up Puller, upPort int) error
}

// Base provides naming and output wiring; every element embeds it.
type Base struct {
	name string
	outs []Target
}

// Name returns the element's instance name.
func (b *Base) Name() string { return b.name }

// SetName sets the element's instance name.
func (b *Base) SetName(s string) { b.name = s }

// SetOutput wires output port p to target t.
func (b *Base) SetOutput(p int, t Target) error {
	if p < 0 {
		return fmt.Errorf("click: negative output port %d", p)
	}
	for len(b.outs) <= p {
		b.outs = append(b.outs, Target{})
	}
	if b.outs[p].Elem != nil {
		return fmt.Errorf("click: output port %d already connected", p)
	}
	t.base = t.Elem.Wiring()
	b.outs[p] = t
	return nil
}

// Wiring returns the element's Base: its name and output wiring.
func (b *Base) Wiring() *Base { return b }

// Out forwards a packet through output port p, dropping it if the
// port is unconnected. It is for packets an element releases on its own
// schedule (Ticker drains, pull consumers); a Step returns the port
// instead.
func (b *Base) Out(ctx *Context, p int, pk *packet.Packet) {
	if t := b.Target(p); t.Elem != nil {
		push(ctx, t.Elem, t.base, t.Port, pk)
		return
	}
	ctx.Drop(pk)
}

// Connected reports whether output port p is wired.
func (b *Base) Connected(p int) bool {
	return p < len(b.outs) && b.outs[p].Elem != nil
}

// Target returns the wiring of output port p (zero Target if
// unwired).
func (b *Base) Target(p int) Target {
	if p < len(b.outs) {
		return b.outs[p]
	}
	return Target{}
}

// NumWiredOutputs returns the number of output slots allocated by
// wiring (used to validate variable-port elements).
func (b *Base) NumWiredOutputs() int { return len(b.outs) }

// Factory creates an unconfigured element instance.
type Factory func() Element

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// Register adds a class to the global element registry. It panics on
// duplicates, mirroring Click's link-time class table.
func Register(class string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[class]; dup {
		panic("click: duplicate element class " + class)
	}
	registry[class] = f
}

// Lookup returns the factory for class, or nil.
func Lookup(class string) Factory {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[class]
}

// Classes returns the sorted list of registered element classes.
func Classes() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for c := range registry {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Router is an instantiated Click configuration: the unit the paper
// calls a processing module.
type Router struct {
	cfg      *clicklang.Config
	elements map[string]Element
	order    []Element
	sources  []Target // FromNetfront-class entry points, in decl order
	tickers  []Ticker
}

// Injector is implemented by entry-point elements (FromNetfront).
type Injector interface {
	InjectionPoint() bool
}

// Build instantiates, configures and wires a parsed configuration.
func Build(cfg *clicklang.Config) (*Router, error) {
	r := &Router{cfg: cfg, elements: make(map[string]Element, len(cfg.Decls))}
	for _, d := range cfg.Decls {
		f := Lookup(d.Class)
		if f == nil {
			return nil, fmt.Errorf("click: %s: unknown element class %q", d.Name, d.Class)
		}
		el := f()
		el.SetName(d.Name)
		if err := el.Configure(d.Args); err != nil {
			return nil, fmt.Errorf("click: %s :: %s: %v", d.Name, d.Class, err)
		}
		r.elements[d.Name] = el
		r.order = append(r.order, el)
		if inj, ok := el.(Injector); ok && inj.InjectionPoint() {
			r.sources = append(r.sources, Target{Elem: el, base: el.Wiring()})
		}
		if t, ok := el.(Ticker); ok {
			r.tickers = append(r.tickers, t)
		}
	}
	for _, c := range cfg.Conns {
		from := r.elements[c.From]
		to := r.elements[c.To]
		if n := from.OutPorts(); n != AnyPorts && c.FromPort >= n {
			return nil, fmt.Errorf("click: %s has %d output ports, connection uses [%d]", c.From, n, c.FromPort)
		}
		if n := to.InPorts(); n != AnyPorts && c.ToPort >= n {
			return nil, fmt.Errorf("click: %s has %d input ports, connection uses [%d]", c.To, n, c.ToPort)
		}
		if err := from.SetOutput(c.FromPort, Target{Elem: to, Port: c.ToPort}); err != nil {
			return nil, fmt.Errorf("click: %s[%d] -> [%d]%s: %v", c.From, c.FromPort, c.ToPort, c.To, err)
		}
		// Pull-path wiring: a Puller output feeding a pull input hands
		// the upstream reference over (Click's pull ports).
		if up, isPuller := from.(Puller); isPuller {
			if dn, wantsPull := to.(UpstreamSetter); wantsPull {
				if err := dn.SetUpstream(c.ToPort, up, c.FromPort); err != nil {
					return nil, fmt.Errorf("click: %s[%d] -> [%d]%s: %v", c.From, c.FromPort, c.ToPort, c.To, err)
				}
			}
		}
	}
	return r, nil
}

// MustBuildString parses and builds src, panicking on error; for
// tests and fixed stock configurations.
func MustBuildString(src string) *Router {
	cfg, err := clicklang.Parse(src)
	if err != nil {
		panic(err)
	}
	r, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the parsed configuration the router was built from.
func (r *Router) Config() *clicklang.Config { return r.cfg }

// Element returns the named element, or nil.
func (r *Router) Element(name string) Element { return r.elements[name] }

// Elements returns all elements in declaration order.
func (r *Router) Elements() []Element { return r.order }

// NumSources returns the number of injection points (FromNetfront).
func (r *Router) NumSources() int { return len(r.sources) }

// Inject pushes a packet into the i'th injection point.
func (r *Router) Inject(ctx *Context, i int, p *packet.Packet) error {
	if i < 0 || i >= len(r.sources) {
		return fmt.Errorf("click: no injection point %d (have %d)", i, len(r.sources))
	}
	push(ctx, r.sources[i].Elem, r.sources[i].base, 0, p)
	return nil
}

// Tick drives all schedulable elements once and returns the smallest
// positive delay until the next due tick, or -1 if all are idle.
func (r *Router) Tick(ctx *Context) int64 {
	next := int64(-1)
	for _, t := range r.tickers {
		d := t.Tick(ctx)
		if d >= 0 && (next < 0 || d < next) {
			next = d
		}
	}
	return next
}
