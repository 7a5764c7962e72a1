package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a seam the benchmark owns. Spans of
// one burst or one request share Req; Parent names the span that
// caused this one ("" for a root). Times are nanoseconds since the
// recorder's epoch so a trace file is self-contained.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is how many calls the span aggregates (the per-burst "tx" span
	// folds every Tx callback of the burst into one record).
	N int `json:"n,omitempty"`
}

// recorder keeps spans in memory until the run ends, up to a limit.
// It holds what goes to the trace file; the callers compute their
// aggregates from the raw timestamps, never from this (thinned) list.
// One goroutine uses it: the packet loop, or the deploy post-processing.
type recorder struct {
	epoch time.Time
	spans []span
	limit int
}

func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, spans: make([]span, 0, limit)}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add stores a span unless the in-memory budget is used up.
func (r *recorder) add(s span) {
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, s)
	}
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockCost measures what one start/stop pair of time.Now costs, so
// self times can be corrected for the timer calls their children made.
func clockCost() time.Duration {
	const n = 20000
	var sink int64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		b := time.Now()
		sink += int64(b.Sub(a))
	}
	d := time.Since(t0) / n
	_ = sink
	return d
}
