package telemetry

import (
	"sync"
	"time"
)

// Event is one flight-recorder entry: a structured, timestamped
// record of a control-plane or fault-path transition (election won,
// leader fenced, VM crash, platform outage, journal rollback, ...).
// Events are for postmortems — "what sequence of things happened" —
// where metrics only say "how many".
type Event struct {
	// Seq is assigned by the recorder: strictly increasing for the
	// process lifetime, so consumers can order events and detect ring
	// overwrite gaps.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock emission time.
	Time time.Time `json:"time"`
	// Type names the transition: "election-won", "fenced", "vm-crash",
	// "vm-respawn", "platform-outage", "platform-recover",
	// "vm-evicted", "journal-rollback",
	// "journal-wedged", "platform-down", "platform-up",
	// "module-failover", "migration-failed", "cache-invalidate".
	Type string `json:"type"`
	// Source is the emitting subsystem: "replication", "platform",
	// "journal", "controller".
	Source string `json:"source"`
	// Detail is human-readable context (the fencing reason, the crash
	// cause).
	Detail string `json:"detail,omitempty"`
	// Ref names the subject when one exists: a platform name, a
	// deployment ID, a module address.
	Ref string `json:"ref,omitempty"`
}

// Recorder is the flight recorder: a bounded mutex-guarded ring of
// the most recent events. Recording is a few words copied under a
// short critical section — events are rare (faults, elections,
// compile decisions), never per-packet, so a mutex is cheap and keeps
// Recent racefree. A nil *Recorder no-ops, matching the registry's
// nil-handle convention, so emission sites need no enabled branch.
type Recorder struct {
	mu   sync.Mutex
	ring []Event
	next int
	full bool
	seq  uint64
}

// DefaultEventRing is the ring capacity NewRecorder uses for n <= 0.
const DefaultEventRing = 512

// NewRecorder returns a recorder retaining the last n events.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultEventRing
	}
	return &Recorder{ring: make([]Event, n)}
}

// Record appends one event to the ring.
func (rec *Recorder) Record(typ, source, detail, ref string) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.seq++
	rec.ring[rec.next] = Event{
		Seq:    rec.seq,
		Time:   time.Now(),
		Type:   typ,
		Source: source,
		Detail: detail,
		Ref:    ref,
	}
	rec.next++
	if rec.next == len(rec.ring) {
		rec.next = 0
		rec.full = true
	}
	rec.mu.Unlock()
}

// Recent returns up to n events, newest first (n <= 0 means all
// retained). Returns nil on a nil recorder.
func (rec *Recorder) Recent(n int) []Event {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	size := rec.next
	if rec.full {
		size = len(rec.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		idx := (rec.next - 1 - i + len(rec.ring)) % len(rec.ring)
		out = append(out, rec.ring[idx])
	}
	return out
}

// Len reports how many events the ring currently retains.
func (rec *Recorder) Len() int {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.full {
		return len(rec.ring)
	}
	return rec.next
}
