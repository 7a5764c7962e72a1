// Package netsim is a deterministic discrete-event network simulator.
// It stands in for the paper's physical testbeds (the lab machines of
// §6 and the wide-area deployment of §8): virtual time, an event
// heap, links with latency/bandwidth/loss, and a handful of transport
// helpers. Everything is seeded and single-threaded, so experiment
// harnesses are reproducible run to run.
package netsim

import "math/rand"

// Time is virtual time in nanoseconds since simulation start.
type Time = int64

// Convenient time constructors.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Seconds converts (possibly fractional) seconds to Time.
func Seconds(s float64) Time { return Time(s * 1e9) }

// Millis converts milliseconds to Time.
func Millis(ms float64) Time { return Time(ms * 1e6) }

// event is one scheduled callback, fn(arg). At and After store their
// func() as arg behind callFunc. A func value and a pointer each fit an
// interface word without boxing, so scheduling allocates nothing beyond
// heap growth.
type event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// before orders events by (at, seq). seq is unique, so the order is
// total and dispatch is deterministic.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func callFunc(arg any) { arg.(func())() }

// eventHeap is a binary min-heap of events, typed so that push and pop
// neither box an event nor call through an interface.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest event; the heap must not be
// empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // the vacated slot must not keep fn and arg alive
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Sim is one simulation instance. Not safe for concurrent use — the
// simulated world is single-threaded by construction.
type Sim struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand
	// Executed counts dispatched events.
	Executed uint64
}

// New returns a simulator with a deterministic RNG.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation RNG.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn at absolute time t (clamped to now).
func (s *Sim) At(t Time, fn func()) { s.at(t, callFunc, fn) }

// After schedules fn after delay d.
func (s *Sim) After(d Time, fn func()) { s.at(s.now+d, callFunc, fn) }

// AfterArg schedules fn(arg) after delay d. It is the closure-free arm
// for hot paths: with fn a method value bound once and arg a pointer,
// scheduling allocates nothing.
func (s *Sim) AfterArg(d Time, fn func(any), arg any) { s.at(s.now+d, fn, arg) }

func (s *Sim) at(t Time, fn func(any), arg any) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fn: fn, arg: arg})
}

// Run dispatches events until none remain.
func (s *Sim) Run() {
	for len(s.events) > 0 {
		s.step()
	}
}

// RunUntil dispatches events with timestamps <= t, then sets now = t.
func (s *Sim) RunUntil(t Time) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.step()
	}
	if s.now < t {
		s.now = t
	}
}

func (s *Sim) step() {
	e := s.events.pop()
	s.now = e.at
	s.Executed++
	e.fn(e.arg)
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.events) }

// Link models a serializing link: fixed propagation latency, a
// transmission rate, and optional random loss. Deliveries preserve
// FIFO order; back-to-back sends queue behind each other exactly as
// on a real wire.
type Link struct {
	sim *Sim
	// Latency is the propagation delay.
	Latency Time
	// RateBps is the transmission rate in bits/s (0 = infinite).
	RateBps float64
	// Loss is the packet loss probability in [0, 1).
	Loss float64

	nextFree Time
	// Sent and Lost count packets.
	Sent, Lost uint64
}

// NewLink attaches a link to a simulator.
func NewLink(sim *Sim, latency Time, rateBps float64, loss float64) *Link {
	return &Link{sim: sim, Latency: latency, RateBps: rateBps, Loss: loss}
}

// Send transmits size bytes; deliver runs at arrival time unless the
// packet is lost. Send returns the (virtual) departure completion
// time.
func (l *Link) Send(size int, deliver func()) Time {
	start := l.sim.Now()
	if l.nextFree > start {
		start = l.nextFree
	}
	var txTime Time
	if l.RateBps > 0 {
		txTime = Time(float64(size*8) / l.RateBps * 1e9)
	}
	done := start + txTime
	l.nextFree = done
	l.Sent++
	if l.Loss > 0 && l.sim.rng.Float64() < l.Loss {
		l.Lost++
		return done
	}
	arrive := done + l.Latency
	l.sim.At(arrive, deliver)
	return done
}

// Utilization returns the fraction of time the link has been busy up
// to now (approximate: transmission backlog vs elapsed).
func (l *Link) Utilization() float64 {
	if l.sim.now == 0 {
		return 0
	}
	busy := l.nextFree
	if busy > l.sim.now {
		busy = l.sim.now
	}
	return float64(busy) / float64(l.sim.now)
}

// FluidTransfer estimates the completion time of a TCP-like bulk
// transfer of size bytes over a path with the given RTT and
// bottleneck rate, including a slow-start ramp (initial window 10
// segments of 1460 B, doubling per RTT until the bandwidth-delay
// product is reached). It is the fluid model used by the HTTP-heavy
// experiments where per-packet simulation adds nothing.
func FluidTransfer(size int64, rtt Time, bottleneckBps float64) Time {
	if size <= 0 {
		return 0
	}
	const mss = 1460
	// Slow start: rounds of cwnd segments until the pipe is full.
	cwnd := int64(10)
	bdpSegs := int64(bottleneckBps*float64(rtt)/1e9/8/mss) + 1
	var elapsed Time
	var sent int64
	for sent < size && cwnd < bdpSegs {
		elapsed += rtt
		sent += cwnd * mss
		cwnd *= 2
	}
	if sent >= size {
		return elapsed
	}
	rest := size - sent
	elapsed += Time(float64(rest*8) / bottleneckBps * 1e9)
	return elapsed
}
