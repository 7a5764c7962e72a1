// Package vswitch implements the platform's back-end software switch
// (paper §4.3/§5): an OpenFlow-style rule table the controller
// programs so that traffic for a module's address/protocol/port
// reaches its processing module, plus the switch controller that
// detects new flows (a TCP SYN or a first UDP packet) — the trigger
// for on-the-fly VM instantiation.
//
// Dispatch is sharded: per-flow state (the flow cache, the new-flow
// set, the outage buffer and its drop counters) is split across N
// shards by a hash of the five-tuple, so concurrent senders contend
// only when their flows land on the same shard. The rule table itself
// is shared under a read-write lock — table changes are rare, packet
// dispatch is constant. Packets of one flow always hash to the same
// shard and each shard dispatches serially, so per-flow ordering is
// exactly that of the old single-lock switch (the package's property
// tests assert this equivalence).
package vswitch

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/in-net/innet/internal/packet"
)

// ActionKind says what to do with a matching packet.
type ActionKind int

// Actions.
const (
	// ActDrop discards the packet.
	ActDrop ActionKind = iota
	// ActToModule hands the packet to the platform datapath for the
	// rule's module address.
	ActToModule
	// ActOutput forwards through a switch port (pass-through).
	ActOutput
)

func (a ActionKind) String() string {
	switch a {
	case ActDrop:
		return "drop"
	case ActToModule:
		return "to-module"
	case ActOutput:
		return "output"
	default:
		return "unknown"
	}
}

// Match is a wildcard-capable OpenFlow-style match. Zero fields are
// wildcards (Proto: 0 is an invalid IP protocol in practice, so it
// serves as the wildcard).
type Match struct {
	DstIP   uint32
	Proto   packet.Proto
	DstPort uint16
}

// Covers reports whether the match accepts a packet.
func (m Match) Covers(p *packet.Packet) bool {
	if m.DstIP != 0 && p.DstIP != m.DstIP {
		return false
	}
	if m.Proto != 0 && p.Protocol != m.Proto {
		return false
	}
	if m.DstPort != 0 && p.DstPort != m.DstPort {
		return false
	}
	return true
}

// specificity orders overlapping rules (more fields = higher).
func (m Match) specificity() int {
	n := 0
	if m.DstIP != 0 {
		n++
	}
	if m.Proto != 0 {
		n++
	}
	if m.DstPort != 0 {
		n++
	}
	return n
}

// Rule is one flow-table entry.
type Rule struct {
	Priority int
	Match    Match
	Action   ActionKind
	// Module is the module address for ActToModule.
	Module uint32
	// Port is the output port for ActOutput.
	Port int
	// hits counts matched packets (accessed atomically: shards
	// dispatch concurrently; a plain word keeps Rule copyable for the
	// Install(Rule{...}) literal API).
	hits uint64
}

// Hits returns the number of packets this rule matched.
func (r *Rule) Hits() uint64 { return atomic.LoadUint64(&r.hits) }

// shard owns the per-flow dispatch state for one slice of the flow
// space. The maps and the buffer are guarded by mu, which is only
// ever acquired while holding the switch's table lock (read or
// write). The counters are atomics: they are written under the shard
// lock but read lock-free by the stats accessors (PerShard, Misses,
// DroppedDown, ...), so a telemetry scrape never blocks dispatch.
// (Audit note: the previous mutex-guarded counter reads were not racy
// — every writer held sh.mu — but a snapshot serialized against every
// shard's dispatch; see TestStatsRaceWithDispatch.)
type shard struct {
	mu        sync.Mutex
	flowCache map[packet.FiveTuple]*Rule
	seen      map[packet.FiveTuple]bool
	// buffer parks packets while the platform is down; replayed in
	// arrival order per shard on recovery.
	buffer []*packet.Packet
	// one is scratch for delivering a single packet through the batch
	// sink without allocating (guarded by mu like the maps).
	one [1]*packet.Packet
	// Per-shard counters; aggregated by the Switch accessors.
	// dispatched counts packets that reached a rule action (the
	// switch's throughput counter); buffered mirrors len(buffer).
	misses, newFlows, droppedDown, redispatched, dispatched atomic.Uint64
	buffered                                                atomic.Int64
}

// Switch is the software switch.
type Switch struct {
	// mu guards the rule table and the down flag. Dispatch takes it
	// shared; Install/Remove/SetDown take it exclusive.
	mu     sync.RWMutex
	rules  []*Rule
	down   bool
	shards []*shard
	// shardShift extracts the top log2(len(shards)) bits of the
	// mixed flow hash (shard counts are powers of two; 64 when there
	// is a single shard, which shifts everything out to index 0).
	shardShift uint

	// buffered is the total outage-buffer occupancy across shards
	// (BufferLimit bounds the total, not each shard, so sharding
	// never changes how many packets an outage can park).
	buffered atomic.Int64

	// OnNewFlow, if set, fires for each new flow (first UDP packet or
	// TCP SYN) before the action applies — the §5 switch controller
	// hook.
	OnNewFlow func(p *packet.Packet)
	// ToModule delivers ActToModule packets (the platform datapath).
	ToModule func(module uint32, p *packet.Packet)
	// ToModuleBatch, when set, takes precedence over ToModule: runs of
	// consecutive same-module packets inside a ProcessBatch call are
	// delivered as one slice (the compiled-pipeline fast path). The
	// slice is only valid for the duration of the call: the switch
	// reuses its backing array, so a sink that keeps packets past the
	// call copies them out. Per-module packet order is batch order,
	// exactly as with ToModule.
	ToModuleBatch func(module uint32, pkts []*packet.Packet)
	// Output delivers ActOutput packets.
	Output func(port int, p *packet.Packet)

	// BufferLimit bounds the outage buffer across all shards (default
	// 512; overflow is counted in DroppedDown).
	BufferLimit int
}

// New returns an empty single-shard switch: dispatch behaves exactly
// like the historical single-lock implementation (global arrival
// order preserved across flows, one outage buffer).
func New() *Switch { return NewSharded(1) }

// DefaultShards is the shard count platforms use for the concurrent
// fast path.
const DefaultShards = 4

// NewSharded returns an empty switch whose per-flow dispatch state is
// split across n shards (n < 1 is treated as 1; other counts round up
// to a power of two so shard selection is a multiply and a shift).
// Per-flow ordering is preserved for any n; cross-flow arrival order
// is only defined per shard.
func NewSharded(n int) *Switch {
	if n < 1 {
		n = 1
	}
	for n&(n-1) != 0 {
		n++
	}
	s := &Switch{shards: make([]*shard, n), shardShift: uint(64 - bits.Len(uint(n-1)))}
	for i := range s.shards {
		s.shards[i] = &shard{
			flowCache: make(map[packet.FiveTuple]*Rule),
			seen:      make(map[packet.FiveTuple]bool),
		}
	}
	return s
}

// Shards returns the shard count.
func (s *Switch) Shards() int { return len(s.shards) }

// shardIndex hashes a five-tuple onto a shard slot (a Fibonacci
// multiplicative hash over the packed tuple — a handful of ALU ops,
// cheap enough to pay on every packet). The index is the TOP
// log2(shards) bits of the product: multiplication only carries
// upward, so the top bits are the ones every input bit influences.
// Every packet of a flow lands on the same shard.
func (s *Switch) shardIndex(t packet.FiveTuple) int {
	h := uint64(t.SrcIP)<<32 | uint64(t.DstIP)
	h ^= uint64(t.SrcPort)<<48 | uint64(t.DstPort)<<32 | uint64(t.Protocol)
	return int(h * 0x9e3779b97f4a7c15 >> s.shardShift)
}

func (s *Switch) shardFor(t packet.FiveTuple) *shard {
	return s.shards[s.shardIndex(t)]
}

// Install adds a rule and reorders the table (priority desc, then
// specificity desc). Every shard's flow cache is cleared.
func (s *Switch) Install(r Rule) *Rule {
	s.mu.Lock()
	defer s.mu.Unlock()
	rule := &Rule{
		Priority: r.Priority, Match: r.Match, Action: r.Action,
		Module: r.Module, Port: r.Port,
	}
	s.rules = append(s.rules, rule)
	sort.SliceStable(s.rules, func(i, j int) bool {
		if s.rules[i].Priority != s.rules[j].Priority {
			return s.rules[i].Priority > s.rules[j].Priority
		}
		return s.rules[i].Match.specificity() > s.rules[j].Match.specificity()
	})
	s.clearFlowCachesLocked()
	return rule
}

// Remove deletes a rule.
func (s *Switch) Remove(rule *Rule) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.rules {
		if r == rule {
			s.rules = append(s.rules[:i], s.rules[i+1:]...)
			s.clearFlowCachesLocked()
			return nil
		}
	}
	return fmt.Errorf("vswitch: rule not installed")
}

// clearFlowCachesLocked resets every shard's flow cache (table
// changed). Caller holds the table lock exclusively, so no shard is
// mid-dispatch.
func (s *Switch) clearFlowCachesLocked() {
	for _, sh := range s.shards {
		sh.flowCache = make(map[packet.FiveTuple]*Rule)
	}
}

// Rules returns the current table size.
func (s *Switch) Rules() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rules)
}

// SetDown marks the switch's platform as failed (true) or recovered
// (false). While down, Process buffers up to BufferLimit packets
// (total, across shards); recovery replays each shard's buffer in
// arrival order — so per-flow order survives the outage — before any
// concurrently arriving packet dispatches.
func (s *Switch) SetDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down == down {
		return
	}
	s.down = down
	if down {
		return
	}
	// Replay under the exclusive table lock: packets racing SetDown
	// wait on the read lock, so everything buffered during the outage
	// dispatches before anything that arrives after recovery.
	run := s.getRun()
	for _, sh := range s.shards {
		buf := sh.buffer
		sh.buffer = nil
		sh.buffered.Store(0)
		s.buffered.Add(int64(-len(buf)))
		for _, p := range buf {
			sh.redispatched.Add(1)
			s.dispatch(sh, p, run)
		}
		s.flushRun(run)
	}
	putRun(run)
}

// IsDown reports whether the switch is buffering for a failed
// platform.
func (s *Switch) IsDown() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.down
}

// Buffered returns the number of packets parked in the outage buffers.
func (s *Switch) Buffered() int { return int(s.buffered.Load()) }

// Process runs one packet through the table. Safe for concurrent use;
// packets of the same flow are dispatched in call order provided their
// Process calls are themselves ordered (same sender goroutine).
func (s *Switch) Process(p *packet.Packet) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sh := s.shardFor(p.Tuple())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.processOnShardLocked(sh, p, nil)
}

// moduleRun accumulates a run of consecutive same-module packets for
// one ToModuleBatch delivery.
type moduleRun struct {
	module uint32
	pkts   []*packet.Packet
}

// runPool recycles run buffers across bursts. ProcessBatch runs under
// the shared table lock and may be called concurrently, so a single
// switch-owned buffer would be shared between callers.
var runPool = sync.Pool{New: func() any { return new(moduleRun) }}

// getRun returns an empty run buffer when a batch sink is set, else nil
// (packets then go to the sink one by one).
func (s *Switch) getRun() *moduleRun {
	if s.ToModuleBatch == nil {
		return nil
	}
	return runPool.Get().(*moduleRun)
}

func putRun(run *moduleRun) {
	if run != nil {
		runPool.Put(run)
	}
}

// flushRun hands the accumulated run to the batch sink and resets it.
// The sink must not retain the slice: its backing array is reused.
func (s *Switch) flushRun(run *moduleRun) {
	if run == nil || len(run.pkts) == 0 {
		return
	}
	s.ToModuleBatch(run.module, run.pkts)
	clear(run.pkts) // a pooled buffer must not keep packets alive
	run.pkts = run.pkts[:0]
}

// dispatch matches and applies one packet on a shard. The caller
// holds the table lock (shared or exclusive) and the shard lock. run,
// when non-nil, is the caller's batch accumulator: to-module packets
// are parked there instead of delivered immediately (the caller
// flushes at batch end), so a burst for one module crosses into the
// datapath as a single batch.
func (s *Switch) dispatch(sh *shard, p *packet.Packet, run *moduleRun) {
	t := p.Tuple()
	if !sh.seen[t] {
		isNew := p.Protocol == packet.ProtoUDP ||
			(p.Protocol == packet.ProtoTCP && p.TCPFlags&packet.TCPSyn != 0 && p.TCPFlags&packet.TCPAck == 0) ||
			p.Protocol == packet.ProtoICMP
		if isNew {
			sh.seen[t] = true
			sh.newFlows.Add(1)
			if s.OnNewFlow != nil {
				s.OnNewFlow(p)
			}
		}
	}
	rule := sh.flowCache[t]
	if rule == nil {
		for _, r := range s.rules {
			if r.Match.Covers(p) {
				rule = r
				break
			}
		}
		if rule == nil {
			sh.misses.Add(1)
			return
		}
		sh.flowCache[t] = rule
	}
	sh.dispatched.Add(1)
	atomic.AddUint64(&rule.hits, 1)
	switch rule.Action {
	case ActDrop:
	case ActToModule:
		switch {
		case s.ToModuleBatch != nil && run != nil:
			if len(run.pkts) > 0 && run.module != rule.Module {
				s.flushRun(run)
			}
			run.module = rule.Module
			run.pkts = append(run.pkts, p)
		case s.ToModuleBatch != nil:
			sh.one[0] = p
			s.ToModuleBatch(rule.Module, sh.one[:1])
			sh.one[0] = nil
		case s.ToModule != nil:
			s.ToModule(rule.Module, p)
		}
	case ActOutput:
		// Keep output-vs-module ordering: anything parked for the
		// datapath leaves before this packet does.
		s.flushRun(run)
		if s.Output != nil {
			s.Output(rule.Port, p)
		}
	}
}

// ExpireFlow forgets a five-tuple (connection teardown), so a later
// packet counts as a new flow again.
func (s *Switch) ExpireFlow(t packet.FiveTuple) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sh := s.shardFor(t)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.seen, t)
	delete(sh.flowCache, t)
}

// sumShards aggregates one per-shard counter. The shards slice is
// immutable after construction and the counters are atomics, so the
// sum is wait-free: a metrics scrape never serializes against
// dispatch (it may observe a burst mid-flight, which is fine for
// monotonic counters).
func (s *Switch) sumShards(f func(*shard) uint64) uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += f(sh)
	}
	return n
}

// Misses counts packets matching no rule (dropped), across shards.
func (s *Switch) Misses() uint64 {
	return s.sumShards(func(sh *shard) uint64 { return sh.misses.Load() })
}

// NewFlows counts detected flow starts, across shards.
func (s *Switch) NewFlows() uint64 {
	return s.sumShards(func(sh *shard) uint64 { return sh.newFlows.Load() })
}

// DroppedDown counts packets dropped because the outage buffer
// overflowed, across shards.
func (s *Switch) DroppedDown() uint64 {
	return s.sumShards(func(sh *shard) uint64 { return sh.droppedDown.Load() })
}

// Redispatched counts buffered packets replayed after a recovery,
// across shards.
func (s *Switch) Redispatched() uint64 {
	return s.sumShards(func(sh *shard) uint64 { return sh.redispatched.Load() })
}

// Dispatched counts packets that matched a rule and had its action
// applied, across shards — the switch's throughput counter.
func (s *Switch) Dispatched() uint64 {
	return s.sumShards(func(sh *shard) uint64 { return sh.dispatched.Load() })
}

// ShardStats reports one shard's accounting (for the per-shard
// counter-audit tests and operator introspection).
type ShardStats struct {
	Misses, NewFlows, DroppedDown, Redispatched, Dispatched uint64
	Buffered                                                int
}

// PerShard snapshots every shard's stats in shard order. The snapshot
// is wait-free: counters are atomics and the buffer occupancy is
// mirrored in an atomic, so PerShard is safe to call concurrently
// with ProcessBatch and never blocks a dispatching shard.
func (s *Switch) PerShard() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStats{
			Misses: sh.misses.Load(), NewFlows: sh.newFlows.Load(),
			DroppedDown: sh.droppedDown.Load(), Redispatched: sh.redispatched.Load(),
			Dispatched: sh.dispatched.Load(),
			Buffered:   int(sh.buffered.Load()),
		}
	}
	return out
}

// ProcessBatch runs a burst of packets through the table under one
// table-lock acquisition, holding each shard lock across runs of
// consecutive same-shard packets instead of re-taking it per packet.
// Packets dispatch in batch order, so the ordering guarantees are
// those of calling Process sequentially — the batch amortizes lock
// traffic, and with a ToModuleBatch sink it also coalesces runs of
// same-module packets into single datapath deliveries. It allocates
// nothing in the steady state: the run buffer comes from a pool.
func (s *Switch) ProcessBatch(pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	run := s.getRun()
	var held *shard
	for _, p := range pkts {
		sh := s.shardFor(p.Tuple())
		if sh != held {
			if held != nil {
				held.mu.Unlock()
			}
			sh.mu.Lock()
			held = sh
		}
		s.processOnShardLocked(sh, p, run)
	}
	if held != nil {
		held.mu.Unlock()
	}
	// The final run is flushed after the last shard lock is released:
	// the packets already dispatched (counters, flow cache) and only
	// delivery remains, so a slow datapath does not hold up the shard.
	s.flushRun(run)
	putRun(run)
}

// processOnShardLocked is Process's body after the locks are held:
// outage buffering or dispatch.
func (s *Switch) processOnShardLocked(sh *shard, p *packet.Packet, run *moduleRun) {
	if s.down {
		limit := s.BufferLimit
		if limit <= 0 {
			limit = 512
		}
		if n := s.buffered.Add(1); n > int64(limit) {
			s.buffered.Add(-1)
			sh.droppedDown.Add(1)
			return
		}
		sh.buffer = append(sh.buffer, p)
		sh.buffered.Add(1)
		return
	}
	s.dispatch(sh, p, run)
}

// ShardOf reports which shard a five-tuple dispatches on (stable for
// the life of the switch) — introspection for tests, benchmarks and
// RSS-style flow steering.
func (s *Switch) ShardOf(t packet.FiveTuple) int { return s.shardIndex(t) }
