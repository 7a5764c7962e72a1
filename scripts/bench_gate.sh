#!/usr/bin/env bash
# CI bench regression gate: fail when the newest BENCH_HISTORY.jsonl
# entry dropped more than the threshold vs the previous entry from the
# same environment. The comparison itself lives in internal/bench
# (bench.Gate); this wrapper just names the invocation for CI and
# `make bench-gate`.
#
#   scripts/bench_gate.sh [HISTORY_FILE] [THRESHOLD]
#
# HISTORY_FILE defaults to BENCH_HISTORY.jsonl; THRESHOLD is the
# relative drop that fails the build (default 0.15 = 15%). Gated
# metrics: dispatch_batch_pps, admission_cold_ops_per_sec. A history
# with fewer than two comparable entries passes vacuously (first run on
# a fresh environment).
set -euo pipefail

cd "$(dirname "$0")/.."

HISTORY="${1:-BENCH_HISTORY.jsonl}"
THRESHOLD="${2:-0.15}"

if [ ! -f "$HISTORY" ]; then
    echo "bench gate: no history file $HISTORY (nothing to gate)" >&2
    exit 0
fi

exec go run ./cmd/innet-bench -gate -history "$HISTORY" -gate-threshold "$THRESHOLD"
