package pipeline

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// AffinityHash maps a five-tuple and its exact reverse to the same
// 64-bit hash: the two endpoints are order-normalized before mixing,
// then spread with the same Fibonacci multiplier the vswitch shard
// hash uses. Symmetry matters because stateful elements look up
// reply traffic under the reversed tuple (StatefulFirewall port 1,
// IPRewriter port 1): a flow and its replies must land on the same
// worker for that state to be visible without locks.
func AffinityHash(t packet.FiveTuple) uint64 {
	a := uint64(t.SrcIP)<<16 | uint64(t.SrcPort)
	b := uint64(t.DstIP)<<16 | uint64(t.DstPort)
	if a > b {
		a, b = b, a
	}
	h := a ^ bits.RotateLeft64(b, 23) ^ uint64(t.Protocol)<<56
	return h * 0x9e3779b97f4a7c15
}

// Config parameterizes an Engine.
type Config struct {
	// Workers is the worker count, rounded up to a power of two
	// (minimum 1) so worker selection is a shift of the affinity
	// hash's top bits.
	Workers int
	// Depth is the per-worker submission queue depth (batches), 16
	// when zero.
	Depth int
	// Now supplies the time every worker's stateful elements see.
	// It may be called concurrently.
	Now func() int64
	// Transmit receives packets leaving any worker. It is called from
	// worker goroutines, potentially concurrently with itself.
	Transmit func(worker, iface int, p *packet.Packet)
	// DropHook, if non-nil, observes drops from any worker (same
	// concurrency caveat).
	DropHook func(worker int, p *packet.Packet)
}

type job struct {
	src  int
	pkts []*packet.Packet
	tick bool
}

type engineWorker struct {
	id       int
	x        *Exec
	ch       chan job
	done     chan struct{}
	packets  atomic.Uint64
	batches  atomic.Uint64
	drops    atomic.Uint64
	lastTick atomic.Int64
}

// Engine runs one compiled Program per worker, each worker a
// run-to-completion goroutine over its own element instances. Dispatch
// partitions batches by AffinityHash, so every flow (and its reverse)
// is processed by exactly one worker: stateful elements stay
// single-writer without locks, and per-flow packet order is the
// submission order.
type Engine struct {
	n       int
	shift   uint
	workers []*engineWorker
	wg      sync.WaitGroup
	closed  sync.Once
}

// NewEngine builds cfg once per worker (independent element instances)
// and compiles each into a Program. The configuration must flatten;
// the first compile error is returned.
func NewEngine(cfg *clicklang.Config, c Config) (*Engine, error) {
	n := c.Workers
	if n < 1 {
		n = 1
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	e := &Engine{n: n, shift: uint(64 - bits.TrailingZeros(uint(n)))}
	if n == 1 {
		e.shift = 64
	}
	depth := c.Depth
	if depth <= 0 {
		depth = 16
	}
	for i := 0; i < n; i++ {
		r, err := click.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("pipeline: worker %d: %v", i, err)
		}
		prog, err := Compile(r)
		if err != nil {
			return nil, err
		}
		w := &engineWorker{
			id:   i,
			x:    NewExec(prog),
			ch:   make(chan job, depth),
			done: make(chan struct{}),
		}
		w.x.Now = c.Now
		id := i
		if c.Transmit != nil {
			tx := c.Transmit
			w.x.Transmit = func(iface int, pk *packet.Packet) { tx(id, iface, pk) }
		}
		if c.DropHook != nil {
			dh := c.DropHook
			w.x.DropHook = func(pk *packet.Packet) { dh(id, pk) }
		}
		e.workers = append(e.workers, w)
		go w.loop(e)
	}
	return e, nil
}

// NewEngineString is NewEngine over configuration source text.
func NewEngineString(src string, c Config) (*Engine, error) {
	cfg, err := clicklang.Parse(src)
	if err != nil {
		return nil, err
	}
	return NewEngine(cfg, c)
}

func (w *engineWorker) loop(e *Engine) {
	defer close(w.done)
	for j := range w.ch {
		if j.tick {
			w.lastTick.Store(w.x.Tick())
		} else {
			w.x.Run(j.src, j.pkts)
			w.packets.Add(uint64(len(j.pkts)))
			w.batches.Add(1)
		}
		w.drops.Store(w.x.Drops)
		e.wg.Done()
	}
}

// Workers returns the (rounded) worker count.
func (e *Engine) Workers() int { return e.n }

// EnablePathTrace arms flow-sampled path tracing on every worker:
// each records into its own ring (no cross-worker synchronization),
// and the rings share a sequence counter so scrape-time MergeRecent
// interleaves them in capture order. Must be called before the first
// Dispatch. Returns the per-worker rings.
func (e *Engine) EnablePathTrace(perRing, every int) []*telemetry.PathRing {
	seq := new(atomic.Uint64)
	rings := make([]*telemetry.PathRing, len(e.workers))
	for i, w := range e.workers {
		rings[i] = telemetry.NewPathRing(perRing, seq)
		w.x.EnablePathTrace(rings[i], every)
	}
	return rings
}

// Router exposes worker w's private element graph for introspection
// (stats, tests). Workers mutate their graphs concurrently with
// dispatch; Drain before reading element state.
func (e *Engine) Router(w int) *click.Router { return e.workers[w].x.prog.router }

// WorkerOf returns the worker a packet's flow is pinned to.
func (e *Engine) WorkerOf(pk *packet.Packet) int {
	if e.n == 1 {
		return 0
	}
	return int(AffinityHash(pk.Tuple()) >> e.shift)
}

// Dispatch partitions a batch by flow affinity and submits each
// partition to its worker's queue (blocking when a queue is full).
// The input slice is not retained; per-flow order is preserved because
// a flow's packets always land on the same worker in batch order.
func (e *Engine) Dispatch(src int, pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	if e.n == 1 {
		e.submit(0, src, append(make([]*packet.Packet, 0, len(pkts)), pkts...))
		return
	}
	parts := make([][]*packet.Packet, e.n)
	for _, pk := range pkts {
		w := e.WorkerOf(pk)
		parts[w] = append(parts[w], pk)
	}
	for w, part := range parts {
		if len(part) > 0 {
			e.submit(w, src, part)
		}
	}
}

func (e *Engine) submit(w, src int, pkts []*packet.Packet) {
	e.wg.Add(1)
	e.workers[w].ch <- job{src: src, pkts: pkts}
}

// Drain blocks until every submitted batch (and tick) has run to
// completion.
func (e *Engine) Drain() {
	e.wg.Wait()
}

// Tick schedules a ticker pass on every worker, waits for all of them
// and returns the smallest positive delay until the next due tick, or
// -1 when all workers are idle.
func (e *Engine) Tick() int64 {
	for _, w := range e.workers {
		e.wg.Add(1)
		w.ch <- job{tick: true}
	}
	e.wg.Wait()
	next := int64(-1)
	for _, w := range e.workers {
		if d := w.lastTick.Load(); d >= 0 && (next < 0 || d < next) {
			next = d
		}
	}
	return next
}

// Close drains outstanding work and stops the workers. The engine
// must not be used afterwards.
func (e *Engine) Close() {
	e.closed.Do(func() {
		e.wg.Wait()
		for _, w := range e.workers {
			close(w.ch)
		}
		for _, w := range e.workers {
			<-w.done
		}
	})
}

// WorkerStats is one worker's counters.
type WorkerStats struct {
	Worker  int    `json:"worker"`
	Packets uint64 `json:"packets"`
	Batches uint64 `json:"batches"`
	Drops   uint64 `json:"drops"`
}

// Stats snapshots per-worker counters.
func (e *Engine) Stats() []WorkerStats {
	out := make([]WorkerStats, len(e.workers))
	for i, w := range e.workers {
		out[i] = WorkerStats{
			Worker:  w.id,
			Packets: w.packets.Load(),
			Batches: w.batches.Load(),
			Drops:   w.drops.Load(),
		}
	}
	return out
}

// Totals sums the per-worker counters.
func (e *Engine) Totals() (packets, batches, drops uint64) {
	for _, w := range e.workers {
		packets += w.packets.Load()
		batches += w.batches.Load()
		drops += w.drops.Load()
	}
	return
}
