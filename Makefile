# Standard entry points for the In-Net reproduction. Everything is
# plain `go` — this file just names the common invocations.

GO ?= go

.PHONY: all build test race cover bench bench-replication bench-gate bench-e2e bench-aa bench-pairs smoke-telemetry lint-metrics experiments examples fuzz fmt vet clean golden chaos chaos-replication chaos-quorum

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

# Failover time (leader kill -> first successful admission on the
# promoted standby), pair and 3-node elected, as a printed table.
bench-replication:
	$(GO) run ./cmd/innet-bench -quick -only replication

# The end-to-end benchmark (benchmark/README.md): packet path and
# deploy path, every workload untraced then traced, with the per-layer
# budget. This judges a change; bench-gate runs it against a base ref.
bench-e2e:
	$(GO) run ./benchmark

# A/A check of the end-to-end benchmark: 2 x 10 interleaved runs of
# this commit against the bounds in BENCHMARK.json.
bench-aa:
	bash benchmark/aa.sh 10

# Interleaved parent/change pairs of the end-to-end benchmark
# (median, quartiles, wins, gain/worse per end-to-end metric):
#   make bench-pairs PARENT=../parent-checkout WORKLOAD=deploy-warm N=10
PARENT ?=
WORKLOAD ?= deploy-warm
N ?= 10
RUN_SECONDS ?= 30
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=DIR [WORKLOAD=$(WORKLOAD)] [N=$(N)] [RUN_SECONDS=$(RUN_SECONDS)]"; exit 2; }
	bash scripts/bench_pairs.sh $(PARENT) . $(WORKLOAD) $(N) $(RUN_SECONDS)

# The CI performance gate: interleaved base/change pairs of every
# end-to-end workload in BENCHMARK.json (scripts/bench_gate.sh); fails
# when an end-to-end metric is worse than its bound at 3 pairs and
# still is when that workload is re-run at 10:
#   make bench-gate BASE=origin/main
BASE ?=
bench-gate:
	@test -n "$(BASE)" || { echo "usage: make bench-gate BASE=<git ref>"; exit 2; }
	bash scripts/bench_gate.sh $(BASE)

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

# Short fuzzing passes over every parser, the controller's transition
# function against the journal fold and its simulated dataplane, a
# standby's frame ingest against its store, the synced network snapshot
# against a fresh compile, the one-pass platform demux against the
# sequential one, and the event heap's dispatch order against a stable
# sort. FUZZTIME sets each target's budget (CI runs FUZZTIME=10s).
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/clicklang/
	$(GO) test -fuzz=FuzzSplitArgs -fuzztime=$(FUZZTIME) ./internal/clicklang/
	$(GO) test -fuzz=FuzzCanonicalConfig -fuzztime=$(FUZZTIME) ./internal/clicklang/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/flowspec/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/policy/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/topology/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -fuzz=FuzzControllerFold -fuzztime=$(FUZZTIME) ./internal/controller/
	$(GO) test -fuzz=FuzzStandbyIngest -fuzztime=$(FUZZTIME) ./internal/replication/
	$(GO) test -fuzz=FuzzSnapshotSync -fuzztime=$(FUZZTIME) ./internal/topology/
	$(GO) test -fuzz=FuzzDemuxMatchesSequential -fuzztime=$(FUZZTIME) ./internal/topology/
	$(GO) test -fuzz=FuzzEventOrder -fuzztime=$(FUZZTIME) ./internal/netsim/

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
	$(GO) test -race -timeout 300s ./internal/replication/ -run 'TestQuorum|TestVote|TestFencedNodeRefuses' -count=1 -v

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
