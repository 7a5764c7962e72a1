// Package pipeline runs a module's packets: Exec is the per-module
// driver the platform delivers to. It owns the click.Context that the
// router's own graph walk (click.Push) runs on, so every packet, tick
// and Tee copy goes through the one walk, and it counts what the walk
// does: packets, batches, and drops by the reason the walk dropped
// them for. Its path tracer arms the walk's PathHook for sampled flows.
//
// Every configuration click.Build accepts runs on an Exec: the sandbox
// cycle through one ChangeEnforcer, pull wiring (Queue feeding
// Unqueue, woken by the walk), arrival-order and random branching,
// ticker-driven elements and self-scheduled sources.
package pipeline

import (
	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	_ "github.com/in-net/innet/internal/elements" // the classes CompileConfig builds
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// CompileConfig parses and builds a configuration source into the
// router an Exec runs. The only errors are the parser's and
// click.Build's.
func CompileConfig(src string) (*click.Router, error) {
	cfg, err := clicklang.Parse(src)
	if err != nil {
		return nil, err
	}
	return click.Build(cfg)
}

// Exec runs a router: each packet is walked to its verdict before the
// next one starts. It is single-worker state: one goroutine per Exec,
// like packet.Pool. The hooks mirror click.Context; they may change
// between calls (the platform sets Transmit per packet).
type Exec struct {
	router *click.Router
	ctx    click.Context // the walk's context; its DropHook counts

	// Now returns the current time in nanoseconds (virtual or wall).
	// Stateful elements consult it per packet; nil reads as 0.
	Now func() int64
	// Transmit receives packets leaving through ToNetfront; when nil
	// they are dropped as unwired, as with a nil click.Context.Transmit.
	Transmit func(iface int, p *packet.Packet)
	// DropHook, if non-nil, observes every dropped packet and why.
	DropHook func(r click.DropReason, p *packet.Packet)
	// Pool recycles dropped packets when non-nil.
	Pool *packet.Pool

	// Drops counts packets the walk dropped (unwired ports, element
	// decisions, packets for a missing injection point, drops during
	// ticks); DropsBy splits the same total by taxonomy reason.
	Drops   uint64
	DropsBy [click.NumDropReasons]uint64
	// Packets and Batches count work pushed through Run and RunOne.
	Packets uint64
	Batches uint64

	// Path-trace state (see trace.go). ptRing nil = tracing detached.
	ptRing  *telemetry.PathRing
	ptEvery int
	ptHook  func(elem string, in, out int, v click.Verdict, p *packet.Packet)
	ptPkt   *packet.Packet
	ptHops  []telemetry.PathHop
}

// NewExec returns an execution context for r. The Exec shares r's
// element instances, so checkpoints of r see the state it mutates.
func NewExec(r *click.Router) *Exec {
	x := &Exec{router: r}
	x.ctx.Now = x.now
	x.ctx.DropHook = x.drop
	return x
}

// Router returns the router this Exec runs.
func (x *Exec) Router() *click.Router { return x.router }

// Run pushes a batch into the src'th injection point, running each
// packet to completion in batch order. The input slice is not retained.
// A packet for an injection point the router lacks is dropped as
// unwired and the error returned.
func (x *Exec) Run(src int, pkts []*packet.Packet) error {
	x.Packets += uint64(len(pkts))
	x.Batches++
	x.ctx.Transmit = x.Transmit
	var err error
	for i, pk := range pkts {
		err = x.inject(src, pk, i == 0)
	}
	return err
}

// RunOne is Run for a batch of one (the platform's per-packet delivery
// path).
func (x *Exec) RunOne(src int, pk *packet.Packet) error {
	x.Packets++
	x.Batches++
	x.ctx.Transmit = x.Transmit
	return x.inject(src, pk, true)
}

// inject walks one packet; a batch head whose flow is sampled is walked
// with the hop recorder armed (see trace.go).
func (x *Exec) inject(src int, pk *packet.Packet, head bool) error {
	if head && x.ptRing != nil {
		if h := AffinityHash(pk.Tuple()); telemetry.Sampled(h, x.ptEvery) {
			return x.traced(h, src, pk)
		}
	}
	return x.router.Inject(&x.ctx, src, pk)
}

// Tick drives the router's schedulable elements (Queue, TimedUnqueue,
// RatedUnqueue, Unqueue, TimedSource) once, through the same walk and
// counters as Run. Returns the smallest delay until the next due tick,
// or -1 when idle.
func (x *Exec) Tick() int64 {
	x.ctx.Transmit = x.Transmit
	return x.router.Tick(&x.ctx)
}

// drop is the walk's DropHook: count, observe, recycle.
func (x *Exec) drop(r click.DropReason, pk *packet.Packet) {
	x.Drops++
	x.DropsBy[r]++
	if f := x.DropHook; f != nil {
		f(r, pk)
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
