package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, p := range []pktParams{pktForwardParams, pktTenantsParams} {
		a, err := pktInputHash(7, p)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := pktInputHash(7, p)
		c, _ := pktInputHash(8, p)
		if a != b {
			t.Errorf("packet inputs differ for the same seed: %s vs %s", a, b)
		}
		if a == c {
			t.Errorf("packet inputs identical for seeds 7 and 8: %s", a)
		}
	}
	if a, b := deployInputHash(7), deployInputHash(7); a != b {
		t.Errorf("deploy inputs differ for the same seed: %s vs %s", a, b)
	}
	if a, c := deployInputHash(7), deployInputHash(8); a == c {
		t.Errorf("deploy inputs identical for seeds 7 and 8: %s", a)
	}
}

func TestDeployMixIsByConstruction(t *testing.T) {
	count := map[verdict]int{}
	for i := 0; i < 1000; i++ {
		count[genDeploy(3, streamPhaseA, i).Want]++
	}
	if count[vRejected] != 100 || count[vSandboxed] != 200 || count[vAdmitted] != 700 {
		t.Errorf("mix per 1000 requests = %v, want 100 rejected, 200 sandboxed, 700 admitted", count)
	}
	for i := 0; i < 200; i++ {
		if d := genAdmittedDeploy(3, streamResident, i); d.Want == vRejected {
			t.Fatalf("resident request %d (%s) would be rejected", i, d.Kind)
		}
	}
}

// lastResult parses the contract's result line out of a run's stdout.
func lastResult(t *testing.T, stdout string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last stdout line is not a result: %v\n%s", err, stdout)
	}
	return r
}

// TestWrongExpectationFailsTheRun feeds each path one deliberately
// wrong expectation: the wrong ratio must leave zero and the command
// must exit 1. A check that cannot fail checks nothing.
func TestWrongExpectationFailsTheRun(t *testing.T) {
	for _, wl := range []string{"pkt-forward", "deploy-warm"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", wl, "-seconds", "1", "-smoke", "-out", t.TempDir()}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d with correct expectations\n%s%s", wl, code, stdout.String(), stderr.String())
		}
		if r := lastResult(t, stdout.String()); !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("%s: %+v with correct expectations", wl, r)
		}
		stdout.Reset()
		if code := realMain(append(args, "-wrong-expectation"), &stdout, &stderr); code != 1 {
			t.Fatalf("%s: exit %d with a wrong expectation, want 1\n%s%s", wl, code, stdout.String(), stderr.String())
		}
		r := lastResult(t, stdout.String())
		if r.Correct || r.Failed == 0 {
			t.Fatalf("%s: a wrong expectation went unnoticed: %+v", wl, r)
		}
		t.Logf("%s: wrong ratio %d/%d with the corrupted expectation", wl, r.Failed, r.Attempted)
	}
}

// TestSmoke drives the whole harness — every workload, untraced and
// traced, the report and the trace files — for one second each.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	report := stdout.String()
	for _, wl := range workloads {
		if !strings.Contains(report, "=== "+wl.Name) {
			t.Errorf("report has no section for %s", wl.Name)
		}
		if fi, err := os.Stat(filepath.Join(dir, "trace-"+wl.Name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("no trace file for %s: %v", wl.Name, err)
		}
	}
	for _, d := range endToEnd {
		if !strings.Contains(report, d.Name) {
			t.Errorf("report does not print %s", d.Name)
		}
	}
	for _, want := range []string{"trace_overhead_pct", "unexplained remainder", "symexec.cache_hit_ratio", "vswitch.self_ns_per_pkt"} {
		if !strings.Contains(report, want) {
			t.Errorf("report does not print %s", want)
		}
	}
	if strings.Contains(report, "correct=false") {
		t.Errorf("a smoke workload was incorrect:\n%s", report)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// benchmarkJSON is the layout of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []endToEndDef `json:"end_to_end"`
	PerLayer   []perLayerDef `json:"per_layer"`
}

// The two metric shapes of the contract: end-to-end metrics carry a
// bound (always, even 0), per-layer metrics never do.
type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func specJSON() benchmarkJSON {
	f := benchmarkJSON{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"},
		RunSeconds: runSeconds, Workloads: workloads,
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, endToEndDef{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	return f
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json (what the driver
// reads) and spec.go (what the program reports) from drifting apart;
// `go test ./benchmark -run BenchmarkJSON -update` regenerates the file.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := specJSON()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("BENCHMARK.json differs from spec.go (run with -update to regenerate):\n json %+v\n spec %+v", f, want)
	}
	for _, w := range f.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}
