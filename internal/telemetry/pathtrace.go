package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PathHop is one step of a sampled packet's traversal: the element it
// entered, the ports it used, and what became of it there. Both
// dataplanes record one hop per element Step.
type PathHop struct {
	// Elem is the element name from the Click config.
	Elem string `json:"elem"`
	// InPort / OutPort are the ports the packet arrived on and left
	// by; OutPort is -1 when the element consumed the packet.
	InPort  int `json:"in_port"`
	OutPort int `json:"out_port"`
	// Verdict says what happened at this hop: "forward" (moved to the
	// next element), "queued" (held by a queueing element),
	// "tx:<iface>" (left the dataplane) or "drop:<reason>" (discarded,
	// reason from the drop taxonomy; "drop:unwired" with an OutPort
	// means the chosen port leads nowhere).
	Verdict string `json:"verdict"`
}

// PathTrace is one sampled packet's complete journey through one
// module's dataplane.
type PathTrace struct {
	// Seq orders traces across the per-worker rings of one module
	// (shared counter), newest = highest.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock capture time.
	Time time.Time `json:"time"`
	// FlowHash is the symmetric flow-affinity hash the sampler keyed
	// on; both directions of a connection share it.
	FlowHash uint64 `json:"flow_hash"`
	// Dataplane says which engine produced the trace: "pipeline"
	// (compiled run-to-completion) or "graph" (element-walk fallback).
	Dataplane string `json:"dataplane"`
	// Hops is the stage-by-stage traversal, in execution order.
	Hops []PathHop `json:"hops"`
}

// PathRing retains the most recent path traces for one execution
// context (one pipeline worker, or one module's graph walker). Rings
// belonging to the same module share a *atomic.Uint64 sequence source
// so MergeRecent can interleave them in capture order. Writes take a
// short mutex — they happen at most once per sampled packet (1-in-N
// flows), never on the un-sampled fast path. A nil *PathRing no-ops.
type PathRing struct {
	mu   sync.Mutex
	ring []PathTrace
	next int
	full bool
	seq  *atomic.Uint64
}

// DefaultPathRing is the per-ring capacity NewPathRing uses for
// n <= 0.
const DefaultPathRing = 64

// DefaultTraceEvery is the default flow sampling rate: one traced
// flow in every N distinct flow-hash residues.
const DefaultTraceEvery = 64

// NewPathRing returns a ring retaining n traces, stamping them from
// seq (pass the module's shared counter; nil allocates a private
// one).
func NewPathRing(n int, seq *atomic.Uint64) *PathRing {
	if n <= 0 {
		n = DefaultPathRing
	}
	if seq == nil {
		seq = new(atomic.Uint64)
	}
	return &PathRing{ring: make([]PathTrace, n), seq: seq}
}

// Sampled reports whether a flow hash is selected at a 1-in-every
// rate. Deterministic: the same flow (and, with a symmetric hash, its
// reverse direction) is always either traced or not, so a sampled
// flow yields its complete path every time it appears.
func Sampled(hash uint64, every int) bool {
	return every > 0 && hash%uint64(every) == 0
}

// Put commits one trace, stamping Seq and Time.
func (r *PathRing) Put(t PathTrace) {
	if r == nil {
		return
	}
	t.Seq = r.seq.Add(1)
	t.Time = time.Now()
	r.mu.Lock()
	r.ring[r.next] = t
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Recent returns up to n traces, newest first (n <= 0 means all
// retained). Hops are deep-copied so callers never alias ring memory.
func (r *PathRing) Recent(n int) []PathTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]PathTrace, 0, n)
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.ring)) % len(r.ring)
		t := r.ring[idx]
		t.Hops = append([]PathHop(nil), t.Hops...)
		out = append(out, t)
	}
	return out
}

// MergeRecent interleaves the newest n traces across a module's
// per-worker rings, ordered by shared sequence number (newest first).
// This is the scrape-time merge: workers never synchronize while
// recording.
func MergeRecent(n int, rings ...*PathRing) []PathTrace {
	var all []PathTrace
	for _, r := range rings {
		all = append(all, r.Recent(0)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq > all[j].Seq })
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}
