package telemetry

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestDropsNilSafe(t *testing.T) {
	var d *Drops
	d.Source("x", "y", func() uint64 { return 1 })
	d.Attach(New())
	if d.Snapshot() != nil || d.Total() != 0 {
		t.Fatalf("nil Drops must no-op")
	}
}

func TestDropsSumsAndExports(t *testing.T) {
	d := NewDrops()
	var a, b atomic.Uint64
	d.Source("vswitch", "no_rule", a.Load)
	r := New()
	d.Attach(r)
	// Source added after Attach must still export.
	d.Source("vswitch", "no_rule", b.Load)
	d.Source("platform", "timeout", func() uint64 { return 7 })
	a.Store(3)
	b.Store(4)
	snap := d.Snapshot()
	if got := snap["vswitch"]["no_rule"]; got != 7 {
		t.Fatalf("summed source = %d, want 7", got)
	}
	if got := snap["platform"]["timeout"]; got != 7 {
		t.Fatalf("late source = %d, want 7", got)
	}
	if d.Total() != 14 {
		t.Fatalf("Total = %d, want 14", d.Total())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`innet_drops_total{reason="no_rule",site="vswitch"} 7`,
		`innet_drops_total{reason="timeout",site="platform"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRecorderRingAndOrder(t *testing.T) {
	var nilRec *Recorder
	nilRec.Record("x", "y", "", "")
	if nilRec.Recent(1) != nil || nilRec.Len() != 0 {
		t.Fatalf("nil Recorder must no-op")
	}

	rec := NewRecorder(4)
	for _, typ := range []string{"a", "b", "c", "d", "e", "f"} {
		rec.Record(typ, "test", "detail-"+typ, "ref")
	}
	if rec.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (bounded ring)", rec.Len())
	}
	got := rec.Recent(0)
	want := []string{"f", "e", "d", "c"}
	if len(got) != len(want) {
		t.Fatalf("Recent len = %d, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.Type != want[i] {
			t.Fatalf("Recent[%d].Type = %q, want %q", i, ev.Type, want[i])
		}
	}
	// Seq strictly increases across overwrites.
	if got[0].Seq != 6 || got[3].Seq != 3 {
		t.Fatalf("Seq = %d..%d, want 6..3", got[0].Seq, got[3].Seq)
	}
	if rec.Recent(2)[0].Type != "f" || len(rec.Recent(2)) != 2 {
		t.Fatalf("Recent(2) wrong")
	}
}

func TestSampledDeterministic(t *testing.T) {
	if Sampled(128, 0) {
		t.Fatal("every=0 must disable sampling")
	}
	if !Sampled(128, 64) || Sampled(129, 64) {
		t.Fatal("Sampled must select exactly the zero residue")
	}
	for i := 0; i < 3; i++ {
		if !Sampled(640, 64) {
			t.Fatal("Sampled must be deterministic")
		}
	}
}

func TestPathRingMerge(t *testing.T) {
	var nilRing *PathRing
	nilRing.Put(PathTrace{})
	if nilRing.Recent(1) != nil {
		t.Fatal("nil PathRing must no-op")
	}

	var seq atomic.Uint64
	w0 := NewPathRing(4, &seq)
	w1 := NewPathRing(4, &seq)
	w0.Put(PathTrace{FlowHash: 1, Hops: []PathHop{{Elem: "a", Verdict: "forward"}}})
	w1.Put(PathTrace{FlowHash: 2})
	w0.Put(PathTrace{FlowHash: 3})
	merged := MergeRecent(0, w0, w1)
	if len(merged) != 3 {
		t.Fatalf("merged %d traces, want 3", len(merged))
	}
	for i, wantHash := range []uint64{3, 2, 1} {
		if merged[i].FlowHash != wantHash {
			t.Fatalf("merged[%d].FlowHash = %d, want %d", i, merged[i].FlowHash, wantHash)
		}
	}
	if top := MergeRecent(1, w0, w1); len(top) != 1 || top[0].FlowHash != 3 {
		t.Fatalf("MergeRecent(1) wrong: %+v", top)
	}
	// Deep copy: mutating a returned hop must not touch ring memory.
	merged[2].Hops[0].Elem = "mutated"
	if w0.Recent(0)[1].Hops[0].Elem != "a" {
		t.Fatal("Recent must deep-copy hops")
	}
}
