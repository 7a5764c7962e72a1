# Standard entry points for the In-Net reproduction. Everything is
# plain `go` — this file just names the common invocations.

GO ?= go

.PHONY: all build test race cover bench bench-fast bench-telemetry bench-replication bench-admission bench-all bench-gate bench-e2e bench-aa smoke-telemetry lint-metrics experiments examples fuzz fmt vet clean golden chaos chaos-replication chaos-quorum

# Commit id stamped into BENCH_HISTORY.jsonl entries; CI overrides it.
COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
BENCH_ENV ?= local

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# The paper's evaluation as testing.B benchmarks.
bench:
	$(GO) test -bench=. -benchmem .

# The fast-path measurements (admission cache, sharded dispatch,
# batched dataplane); writes the JSON report described in
# docs/FORMATS.md §8.
bench-fast:
	$(GO) run ./cmd/innet-bench -quick -only fastpath -json BENCH_pr3.json

# The telemetry overhead pair (dispatch and admission throughput,
# registry dark vs attached + continuously scraped); writes the JSON
# report described in docs/FORMATS.md §8.
bench-telemetry:
	$(GO) run ./cmd/innet-bench -quick -only telemetry -telemetry-json BENCH_telemetry.json

# Failover time (leader kill -> first successful admission on the
# promoted standby); writes BENCH_replication.json (innet-bench/1).
bench-replication:
	$(GO) run ./cmd/innet-bench -quick -only replication -replication-json BENCH_replication.json

# Admission scaling (parallel symexec workers, per-element memo,
# delta re-verification); writes BENCH_admission.json (innet-bench/1).
bench-admission:
	$(GO) run ./cmd/innet-bench -quick -only admission -admission-json BENCH_admission.json

# The end-to-end benchmark (benchmark/README.md): packet path and
# deploy path, every workload untraced then traced, with the per-layer
# budget. This, not the single-layer suites below, judges a change.
bench-e2e:
	$(GO) run ./benchmark

# A/A check of the end-to-end benchmark: 2 x 10 interleaved runs of
# this commit against the bounds in BENCHMARK.json.
bench-aa:
	bash benchmark/aa.sh 10

# Every bench suite in one run, all JSON reports under the
# innet-bench/1 schema, plus one appended per-commit entry in
# BENCH_HISTORY.jsonl (docs/FORMATS.md §14).
bench-all:
	$(GO) run ./cmd/innet-bench -quick \
		-only fastpath,telemetry,replication,admission \
		-json BENCH_pr3.json \
		-telemetry-json BENCH_telemetry.json \
		-replication-json BENCH_replication.json \
		-admission-json BENCH_admission.json \
		-history BENCH_HISTORY.jsonl -commit $(COMMIT) -env $(BENCH_ENV)

# Fail when the newest BENCH_HISTORY.jsonl entry regressed >15% vs
# the previous same-env entry (dispatch pps, cold admission ops/s).
bench-gate:
	./scripts/bench_gate.sh BENCH_HISTORY.jsonl

# Boot a real innetd, deploy a module, drive packets, and assert the
# observability endpoints serve every required metric family and a
# complete admission trace.
smoke-telemetry:
	./scripts/smoke_telemetry.sh

# Fail when a registered metric name breaks the innet_[a-z0-9_]+
# convention or is missing from the docs/FORMATS.md §9 metrics table.
lint-metrics:
	./scripts/lint_metrics.sh

# The paper's evaluation as printed tables (quick variant: seconds).
experiments:
	$(GO) run ./cmd/innet-bench -quick

experiments-full:
	$(GO) run ./cmd/innet-bench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pushnotify
	$(GO) run ./examples/protocoltunnel
	$(GO) run ./examples/ddos
	$(GO) run ./examples/cdn

# Short fuzzing passes over every parser.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/clicklang/
	$(GO) test -fuzz=FuzzSplitArgs -fuzztime=15s ./internal/clicklang/
	$(GO) test -fuzz=FuzzCanonicalConfig -fuzztime=30s ./internal/clicklang/
	$(GO) test -fuzz=FuzzMemoKey -fuzztime=30s ./internal/clicklang/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/flowspec/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/policy/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/topology/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=30s ./internal/journal/

# The seeded chaos suite: fault-injected cluster runs with the full
# multi-seed sweep (the sweep is skipped under `go test -short`).
chaos:
	$(GO) test ./internal/faults/ -run 'TestChaos' -count=1 -v

# The replication chaos suite under the race detector: leader kills,
# leader<->standby partitions and stream lag over real loopback TCP,
# with differential convergence checks against unfaulted runs, plus
# the flight-recorder sequence check (crash -> election -> failover).
chaos-replication:
	$(GO) test -race ./internal/faults/ ./internal/replication/ -run 'TestRepl|TestPromotion|TestDeployIdempotent|TestFlightRecorder' -count=1 -v

# The quorum chaos suite under the race detector: 3- and 5-node
# groups with elections — leader crash mid-deploy, symmetric and
# minority partitions, follower lag and rolling restarts, all
# converging to byte-identical journals and differential-checked
# against unfaulted runs.
chaos-quorum:
	$(GO) test -race -timeout 300s ./internal/faults/ -run 'TestGroup' -count=1 -v
	$(GO) test -race -timeout 300s ./internal/replication/ -run 'TestQuorum|TestVote|TestV1|TestLeaderDowngrades|TestFencedNodeRefuses' -count=1 -v

# Refresh the golden experiment tables after an intentional
# calibration change.
golden:
	$(GO) test ./internal/bench -run Golden -update-golden

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -rf bin
