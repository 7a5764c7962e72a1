package click

import (
	"strconv"

	"github.com/in-net/innet/internal/packet"
)

// DropReason classifies why a dataplane discarded a packet — the
// dataplane's slice of the unified drop taxonomy (FORMATS.md §15).
type DropReason uint8

const (
	// DropUnwired: pushed to an unconnected output port (or a nil
	// Transmit hook) — the graph simply has nowhere to send it.
	DropUnwired DropReason = iota
	// DropDiscard: consumed by an element that takes no traffic
	// (Discard; a packet pushed at a source or a pull input).
	DropDiscard
	// DropFilter: refused by a filtering decision (IPFilter,
	// RateLimiter, StatefulFirewall, ChangeEnforcer, IPDecap on a
	// payload that does not parse).
	DropFilter
	// DropNoRoute: no classifier/route/rewriter mapping matched
	// (IPClassifier, LookupIPRoute, IPRewriter).
	DropNoRoute
	// DropOverflow: a bounded Queue was full.
	DropOverflow

	// NumDropReasons sizes per-reason counter arrays.
	NumDropReasons = int(iota)
)

var dropReasonNames = [NumDropReasons]string{
	"unwired", "discard", "filter", "no_route", "overflow",
}

// String returns the taxonomy name ("unwired", "filter", ...).
func (r DropReason) String() string { return dropReasonNames[r] }

// DropReasonNames returns the taxonomy names indexed by DropReason.
func DropReasonNames() []string { return dropReasonNames[:] }

// Verdict is what a Step decided. A non-negative Verdict is the output
// port the packet continues on; negative values say the element
// consumed it: Held, Drop(reason) or Tx(iface).
type Verdict int32

// Held: the element kept the packet (queued it for a later tick or a
// pull consumer).
const Held Verdict = -1

const txBase = Held - Verdict(NumDropReasons) - 1

// Drop is the verdict of an element that discarded the packet.
func Drop(r DropReason) Verdict { return Held - 1 - Verdict(r) }

// Tx is the verdict of an egress element: the packet leaves the module
// through interface iface.
func Tx(iface int) Verdict { return txBase - Verdict(iface) }

// IsTx reports whether v is a Tx verdict.
func (v Verdict) IsTx() bool { return v <= txBase }

// Iface returns the interface of a Tx verdict.
func (v Verdict) Iface() int { return int(txBase - v) }

// Reason returns the reason of a Drop verdict.
func (v Verdict) Reason() DropReason { return DropReason(Held - 1 - v) }

// String renders the verdict as path traces spell it (FORMATS.md §15):
// "forward", "queued", "tx:<iface>" or "drop:<reason>".
func (v Verdict) String() string {
	switch {
	case v >= 0:
		return "forward"
	case v == Held:
		return "queued"
	case v.IsTx():
		return "tx:" + strconv.Itoa(v.Iface())
	}
	return "drop:" + v.Reason().String()
}

// settle turns the verdict of a Step whose packet found no wired edge
// to follow into what the walk acts on and records, and names the
// output port the element chose (-1 when it consumed the packet): a
// port that leads nowhere, and a Tx with no Transmit hook to take it
// (canTx false), drop the packet as unwired.
func settle(v Verdict, canTx bool) (out int, final Verdict) {
	switch {
	case v >= 0:
		return int(v), Drop(DropUnwired)
	case v.IsTx() && !canTx:
		return -1, Drop(DropUnwired)
	}
	return -1, v
}

// Waker is implemented by a holding element whose packets a pull-side
// consumer drains through the graph walk (Queue feeding Unqueue): after
// a Held verdict, Push calls Wake so the consumer runs at once, like
// Click's task notifiers.
type Waker interface {
	Wake(ctx *Context)
}

// walk is the graph walk's Env.
type walk struct{ ctx *Context }

func (w walk) Now() int64 { return w.ctx.Now() }

func (w walk) Emit(from Element, port int, p *packet.Packet) {
	from.Wiring().Out(w.ctx, port, p)
}

// Push is the graph-walk driver: it steps the packet through el and
// every element downstream of it until one consumes it, then acts on
// that verdict (Transmit, Drop, or nothing for Held).
func Push(ctx *Context, el Element, port int, p *packet.Packet) {
	push(ctx, el, el.Wiring(), port, p)
}

// push is Push with el's wiring b already in hand.
func push(ctx *Context, el Element, b *Base, port int, p *packet.Packet) {
	env := walk{ctx}
	for {
		v := el.Step(env, port, p)
		if out := uint(v); out < uint(len(b.outs)) { // an output port, in range
			if next := &b.outs[out]; next.Elem != nil {
				if ctx.PathHook != nil {
					ctx.PathHook(b.name, port, int(v), v, p)
				}
				el, b, port = next.Elem, next.base, next.Port
				continue
			}
		}
		out, v := settle(v, ctx.Transmit != nil)
		if ctx.PathHook != nil {
			ctx.PathHook(b.name, port, out, v, p)
		}
		switch {
		case v.IsTx():
			ctx.Transmit(v.Iface(), p)
		case v == Held:
			if w, ok := el.(Waker); ok {
				w.Wake(ctx)
			}
		default:
			ctx.Drop(v.Reason(), p)
		}
		return
	}
}
