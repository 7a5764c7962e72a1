#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): build the benchmark
# from the checkout it is run in, then hand over to it.
#
#   bash benchmark/run.sh --workload pkt-forward --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under benchmark/out/
# (build cache, temporary files, binary, journals, trace files), so a
# checkout is left as it was found apart from that one ignored
# directory. Without the repository around it (no go.mod) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/benchmark/out"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# XDG_CONFIG_HOME keeps the go command's configuration inside the
# checkout too (it also means `go env -w` settings do not apply here).
# Telemetry mode "off" in that configuration: with a fresh config
# directory the go command would otherwise start a detached telemetry
# child process that outlives this script.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
XDG_CONFIG_HOME="$out/config" go build -o "$out/innet-benchmark" ./benchmark
exec "$out/innet-benchmark" "$@"
