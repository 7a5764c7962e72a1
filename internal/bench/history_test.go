package bench

import (
	"errors"
	"path/filepath"
	"testing"
)

func entry(commit string, metrics map[string]float64) *HistoryEntry {
	e := NewHistoryEntry(commit, "test")
	for k, v := range metrics {
		e.Metrics[k] = v
	}
	return e
}

func TestHistoryAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_HISTORY.jsonl")
	if err := AppendHistory(path, entry("aaa", map[string]float64{"dispatch_batch_pps": 10e6})); err != nil {
		t.Fatal(err)
	}
	if err := AppendHistory(path, entry("bbb", map[string]float64{"dispatch_batch_pps": 11e6})); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Commit != "aaa" || got[1].Commit != "bbb" {
		t.Fatalf("entries = %+v", got)
	}
	if got[0].Format != HistoryFormat || got[0].Env != "test" {
		t.Fatalf("stamp = %+v", got[0])
	}
	if got[1].Metrics["dispatch_batch_pps"] != 11e6 {
		t.Fatalf("metrics = %v", got[1].Metrics)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	entries := []HistoryEntry{
		*entry("aaa", map[string]float64{"dispatch_batch_pps": 10e6, "admission_cold_ops_per_sec": 1000}),
		*entry("bbb", map[string]float64{"dispatch_batch_pps": 9e6, "admission_cold_ops_per_sec": 990}),
	}
	if err := Gate(entries, 0.15); err != nil {
		t.Fatalf("10%% drop should pass a 15%% gate: %v", err)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	entries := []HistoryEntry{
		*entry("aaa", map[string]float64{"dispatch_batch_pps": 10e6}),
		*entry("bbb", map[string]float64{"dispatch_batch_pps": 8e6}),
	}
	err := Gate(entries, 0.15)
	var ge *GateError
	if !errors.As(err, &ge) {
		t.Fatalf("20%% drop should fail a 15%% gate, got %v", err)
	}
	if ge.BaseCommit != "aaa" || len(ge.Regressed) != 1 {
		t.Fatalf("gate error = %+v", ge)
	}
}

func TestGateSkipsOtherEnvsAndNewMetrics(t *testing.T) {
	other := NewHistoryEntry("zzz", "laptop")
	other.Metrics["dispatch_batch_pps"] = 100e6 // different env: not a baseline
	entries := []HistoryEntry{
		*entry("aaa", map[string]float64{"dispatch_batch_pps": 10e6}),
		*other,
		// admission_cold_ops_per_sec appears for the first time: not gated.
		*entry("bbb", map[string]float64{"dispatch_batch_pps": 10e6, "admission_cold_ops_per_sec": 1e3}),
	}
	if err := Gate(entries, 0.15); err != nil {
		t.Fatal(err)
	}
	if err := Gate(entries[:2], 0.15); err != nil {
		t.Fatalf("no same-env baseline: %v", err)
	}
}

func TestGateEmptyHistory(t *testing.T) {
	if err := Gate(nil, 0.15); err != nil {
		t.Fatal(err)
	}
	if err := Gate([]HistoryEntry{*entry("aaa", nil)}, 0.15); err != nil {
		t.Fatal(err)
	}
}
