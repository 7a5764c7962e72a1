package elements

import (
	"fmt"
	"strconv"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("Queue", func() click.Element { return &Queue{} })
	click.Register("TimedUnqueue", func() click.Element { return &TimedUnqueue{} })
	click.Register("RatedUnqueue", func() click.Element { return &RatedUnqueue{} })
	click.Register("RateLimiter", func() click.Element { return &RateLimiter{} })
	click.Register("BandwidthShaper", func() click.Element { return &RateLimiter{bytes: true} })
}

// Queue is a FIFO buffer. When its output feeds a pull-input element
// (Unqueue), the downstream drains it through Pull, exactly like
// Click's pull path; otherwise the driver's tick releases everything
// buffered. The argument is the capacity (default 1000); overflowing
// packets are dropped.
type Queue struct {
	click.Base
	Capacity int
	buf      []*packet.Packet
	Drops    uint64
}

// Class implements click.Element.
func (e *Queue) Class() string { return "Queue" }

// Configure implements click.Element.
func (e *Queue) Configure(args []string) error {
	e.Capacity = 1000
	if len(args) > 1 {
		return fmt.Errorf("Queue: want at most 1 arg")
	}
	if len(args) == 1 && args[0] != "" {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return fmt.Errorf("Queue: bad capacity %q", args[0])
		}
		e.Capacity = n
	}
	return nil
}

// InPorts implements click.Element.
func (e *Queue) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *Queue) OutPorts() int { return 1 }

// Len returns the number of buffered packets.
func (e *Queue) Len() int { return len(e.buf) }

// Step implements click.Element: overflowing packets are counted and
// dropped.
func (e *Queue) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if len(e.buf) >= e.Capacity {
		e.Drops++
		return click.Drop(click.DropOverflow)
	}
	e.buf = append(e.buf, p)
	return click.Held
}

// Wake implements click.Waker: wake a pull-side consumer, if one
// claimed this queue (the notifier of Click's pull path).
func (e *Queue) Wake(ctx *click.Context) {
	if k, ok := e.downstream().(kicker); ok {
		k.Kick(ctx)
	}
}

// Pull implements click.Puller.
func (e *Queue) Pull(ctx *click.Context, port int) *packet.Packet {
	if len(e.buf) == 0 {
		return nil
	}
	p := e.buf[0]
	e.buf = e.buf[1:]
	return p
}

// downstream returns the element wired to output 0, or nil.
func (e *Queue) downstream() click.Element {
	if !e.Connected(0) {
		return nil
	}
	return e.Target(0).Elem
}

// Tick implements click.Ticker: drain everything buffered — unless a
// pull-side consumer owns the queue, in which case draining is its
// job.
func (e *Queue) Tick(ctx *click.Context) int64 {
	if _, pulled := e.downstream().(kicker); pulled {
		return -1
	}
	for _, p := range e.buf {
		e.Out(ctx, 0, p)
	}
	e.buf = e.buf[:0]
	return -1
}

// Sym implements symexec.Model: queueing does not change headers.
func (e *Queue) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}

// TimedUnqueue buffers packets and releases up to BURST of them every
// INTERVAL seconds — the batching element of the paper's Fig. 4 push
// notification module:
//
//	TimedUnqueue(120, 100)
type TimedUnqueue struct {
	click.Base
	// IntervalNS is the batching interval in nanoseconds.
	IntervalNS int64
	// Burst is the max packets released per interval (0 = all).
	Burst int
	buf   []*packet.Packet
	next  int64 // next release time; 0 = unscheduled
	// Released counts released packets.
	Released uint64
}

// Class implements click.Element.
func (e *TimedUnqueue) Class() string { return "TimedUnqueue" }

// Configure implements click.Element.
func (e *TimedUnqueue) Configure(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("TimedUnqueue: want INTERVAL [BURST]")
	}
	sec, err := strconv.ParseFloat(args[0], 64)
	if err != nil || sec <= 0 {
		return fmt.Errorf("TimedUnqueue: bad interval %q", args[0])
	}
	e.IntervalNS = int64(sec * 1e9)
	if len(args) == 2 {
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 0 {
			return fmt.Errorf("TimedUnqueue: bad burst %q", args[1])
		}
		e.Burst = n
	}
	return nil
}

// InPorts implements click.Element.
func (e *TimedUnqueue) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *TimedUnqueue) OutPorts() int { return 1 }

// Pending returns the number of buffered packets.
func (e *TimedUnqueue) Pending() int { return len(e.buf) }

// Step implements click.Element: buffer the packet, scheduling the
// release interval if idle.
func (e *TimedUnqueue) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	e.buf = append(e.buf, p)
	if e.next == 0 {
		e.next = env.Now() + e.IntervalNS
	}
	return click.Held
}

// Tick implements click.Ticker: release a batch when the interval
// elapsed; returns the delay until the next due release.
func (e *TimedUnqueue) Tick(ctx *click.Context) int64 {
	now := ctx.Now()
	if len(e.buf) == 0 {
		e.next = 0
		return -1
	}
	if now < e.next {
		return e.next - now
	}
	n := len(e.buf)
	if e.Burst > 0 && e.Burst < n {
		n = e.Burst
	}
	for _, p := range e.buf[:n] {
		e.Released++
		e.Out(ctx, 0, p)
	}
	e.buf = append(e.buf[:0], e.buf[n:]...)
	if len(e.buf) == 0 {
		e.next = 0
		return -1
	}
	e.next = now + e.IntervalNS
	return e.IntervalNS
}

// Sym implements symexec.Model: batching delays but never rewrites.
func (e *TimedUnqueue) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}

// RatedUnqueue buffers packets and releases them at a fixed rate in
// packets per second:
//
//	RatedUnqueue(1000)
type RatedUnqueue struct {
	click.Base
	// PPS is the release rate.
	PPS  float64
	buf  []*packet.Packet
	next int64
}

// Class implements click.Element.
func (e *RatedUnqueue) Class() string { return "RatedUnqueue" }

// Configure implements click.Element.
func (e *RatedUnqueue) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("RatedUnqueue: want RATE")
	}
	r, err := strconv.ParseFloat(args[0], 64)
	if err != nil || r <= 0 {
		return fmt.Errorf("RatedUnqueue: bad rate %q", args[0])
	}
	e.PPS = r
	return nil
}

// InPorts implements click.Element.
func (e *RatedUnqueue) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *RatedUnqueue) OutPorts() int { return 1 }

// Step implements click.Element.
func (e *RatedUnqueue) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	e.buf = append(e.buf, p)
	if e.next == 0 {
		e.next = env.Now()
	}
	return click.Held
}

// Tick implements click.Ticker.
func (e *RatedUnqueue) Tick(ctx *click.Context) int64 {
	gap := int64(1e9 / e.PPS)
	now := ctx.Now()
	for len(e.buf) > 0 && now >= e.next {
		p := e.buf[0]
		e.buf = e.buf[1:]
		e.next += gap
		e.Out(ctx, 0, p)
	}
	if len(e.buf) == 0 {
		e.next = 0
		return -1
	}
	return e.next - now
}

// Sym implements symexec.Model.
func (e *RatedUnqueue) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}

// RateLimiter polices traffic with a token bucket, dropping packets
// over the configured rate. Registered both as RateLimiter (rate in
// packets/s) and BandwidthShaper (rate in bytes/s):
//
//	RateLimiter(10000)         // 10 kpps
//	BandwidthShaper(3125000)   // 25 Mbit/s
type RateLimiter struct {
	click.Base
	bytes bool
	// Rate is tokens per second (packets or bytes).
	Rate float64
	// BurstTokens is the bucket depth (defaults to one second's
	// worth).
	BurstTokens float64
	tokens      float64
	last        int64
	started     bool
	Dropped     uint64
}

// Class implements click.Element.
func (e *RateLimiter) Class() string {
	if e.bytes {
		return "BandwidthShaper"
	}
	return "RateLimiter"
}

// Configure implements click.Element.
func (e *RateLimiter) Configure(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("%s: want RATE [BURST]", e.Class())
	}
	r, err := strconv.ParseFloat(args[0], 64)
	if err != nil || r <= 0 {
		return fmt.Errorf("%s: bad rate %q", e.Class(), args[0])
	}
	e.Rate = r
	e.BurstTokens = r
	if len(args) == 2 {
		b, err := strconv.ParseFloat(args[1], 64)
		if err != nil || b <= 0 {
			return fmt.Errorf("%s: bad burst %q", e.Class(), args[1])
		}
		e.BurstTokens = b
	}
	e.tokens = e.BurstTokens
	return nil
}

// InPorts implements click.Element.
func (e *RateLimiter) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *RateLimiter) OutPorts() int { return 1 }

// Step implements click.Element: charge one packet against the token
// bucket; over-rate packets are counted and dropped.
func (e *RateLimiter) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	now := env.Now()
	if e.started {
		e.tokens += float64(now-e.last) / 1e9 * e.Rate
		if e.tokens > e.BurstTokens {
			e.tokens = e.BurstTokens
		}
	}
	e.started = true
	e.last = now
	cost := 1.0
	if e.bytes {
		cost = float64(p.Len())
	}
	if e.tokens < cost {
		e.Dropped++
		return click.Drop(click.DropFilter)
	}
	e.tokens -= cost
	return 0
}

// Sym implements symexec.Model: policing drops or forwards unchanged;
// the forwarded flow is what reachability must consider.
func (e *RateLimiter) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}
