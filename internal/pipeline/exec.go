package pipeline

import (
	"fmt"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// Exec runs a Program: each packet is carried through the stage table
// to its verdict before the next one starts, exactly the order of the
// graph walk. It is single-worker state: one goroutine per Exec, like
// packet.Pool. The hooks mirror click.Context; set them before the
// first Run.
type Exec struct {
	prog *Program
	env  click.Env     // the Exec itself, as elements see it in Step
	ctx  click.Context // graph-walk context for ticker drains

	// Now returns the current time in nanoseconds (virtual or wall).
	// Stateful elements consult it per packet.
	Now func() int64
	// Transmit receives packets leaving through ToNetfront stages;
	// when nil they are dropped, as with a nil click.Context.Transmit.
	Transmit func(iface int, p *packet.Packet)
	// DropHook, if non-nil, observes every dropped packet.
	DropHook func(p *packet.Packet)
	// Pool recycles dropped packets when non-nil.
	Pool *packet.Pool

	// Drops counts packets dropped by the program (unwired ports and
	// element decisions); DropsBy splits the same total by taxonomy
	// reason.
	Drops   uint64
	DropsBy [click.NumDropReasons]uint64
	// Packets and Batches count work pushed through Run.
	Packets uint64
	Batches uint64

	// Path-trace state (see trace.go). ptRing nil = tracing detached.
	ptRing  *telemetry.PathRing
	ptEvery int
	ptHops  []telemetry.PathHop
}

// NewExec returns an execution context for prog.
func NewExec(prog *Program) *Exec {
	x := &Exec{prog: prog}
	x.env = execEnv{x}
	// The graph-walk context used for ticker drains forwards to the
	// same hooks the compiled steps use, so both paths see identical
	// time, egress and drop behavior.
	x.ctx = click.Context{
		Now:      x.now,
		Transmit: x.transmit,
		DropHook: func(pk *packet.Packet) { x.drop(pk, click.DropOther) },
	}
	return x
}

// Program returns the program this Exec runs.
func (x *Exec) Program() *Program { return x.prog }

// Run pushes a batch into the src'th injection point, running each
// packet to completion in batch order. The input slice is not retained.
func (x *Exec) Run(src int, pkts []*packet.Packet) error {
	if src < 0 || src >= len(x.prog.srcs) {
		return x.badSource(src)
	}
	x.Packets += uint64(len(pkts))
	x.Batches++
	st := x.prog.srcs[src]
	for i, pk := range pkts {
		if i > 0 || x.ptRing == nil || !x.runSampled(st, pk) {
			x.run(st, 0, pk, false)
		}
	}
	return nil
}

// RunOne is Run for a batch of one (the platform's per-packet delivery
// path).
func (x *Exec) RunOne(src int, pk *packet.Packet) error {
	if src < 0 || src >= len(x.prog.srcs) {
		return x.badSource(src)
	}
	x.Packets++
	x.Batches++
	if st := x.prog.srcs[src]; x.ptRing == nil || !x.runSampled(st, pk) {
		x.run(st, 0, pk, false)
	}
	return nil
}

func (x *Exec) badSource(src int) error {
	return fmt.Errorf("pipeline: no injection point %d (have %d)", src, len(x.prog.srcs))
}

// run is the executor: it steps pk from stage st (arriving on input
// port in) along wired edges until an element consumes it or it falls
// off an unwired port, then acts on that verdict. With trace set it
// appends one hop per step to ptHops.
func (x *Exec) run(st *stage, in int, pk *packet.Packet, trace bool) {
	env := x.env
	for {
		v := st.el.Step(env, in, pk)
		if port := uint(v); port < uint(len(st.next)) { // an output port, in range
			if next := st.next[port]; next.st != nil {
				if trace {
					x.hop(st, in, int(v), v)
				}
				st, in = next.st, next.port
				continue
			}
		}
		out, v := click.Settle(v, x.Transmit != nil)
		if trace {
			x.hop(st, in, out, v)
		}
		switch {
		case v.IsTx():
			x.Transmit(v.Iface(), pk)
		case v != click.Held:
			x.drop(pk, v.Reason())
		}
		return
	}
}

// Tick drives the router's schedulable elements (Queue, TimedUnqueue,
// RatedUnqueue) through the ordinary graph walk, sharing the Exec's
// hooks. The drained packets traverse the same element instances the
// compiled stages mutate, so compiled and graph execution stay
// coherent. Returns the smallest delay until the next due tick, or -1
// when idle.
func (x *Exec) Tick() int64 {
	return x.prog.router.Tick(&x.ctx)
}

func (x *Exec) drop(pk *packet.Packet, reason click.DropReason) {
	x.Drops++
	x.DropsBy[reason]++
	if f := x.DropHook; f != nil {
		f(pk)
	}
	if x.Pool != nil {
		x.Pool.Put(pk)
	}
}

func (x *Exec) now() int64 {
	if f := x.Now; f != nil {
		return f()
	}
	return 0
}

// transmit is the ticker-drain egress: the graph walk only calls it
// with a non-nil Context.Transmit, so the nil-hook case is handled here.
func (x *Exec) transmit(iface int, pk *packet.Packet) {
	if f := x.Transmit; f != nil {
		f(iface, pk)
		return
	}
	x.drop(pk, click.DropUnwired)
}

// execEnv is the Exec as click.Env. (Exec cannot implement Env itself:
// its Now hook is a field.)
type execEnv struct{ x *Exec }

func (e execEnv) Now() int64 { return e.x.now() }

// Emit runs an extra copy from the stage wired to from's output port,
// to completion, before the original continues — the graph walk's
// depth-first order.
func (e execEnv) Emit(from click.Element, port int, pk *packet.Packet) {
	x := e.x
	if st := x.prog.index[from]; port < len(st.next) && st.next[port].st != nil {
		x.run(st.next[port].st, st.next[port].port, pk, false)
		return
	}
	x.drop(pk, click.DropUnwired)
}
