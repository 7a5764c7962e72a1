#!/usr/bin/env bash
# A/A check: two interleaved sets of N (default 3) full runs of the same
# commit. Prints, per workload and end-to-end metric, each set's median
# and quartile spread, the shift between the sets, and PASS/FAIL against
# the bound in spec.go / BENCHMARK.json. Exits non-zero on any FAIL.
#
#   bash benchmark/aa.sh        # 2 x 3 runs per workload, ~10 min
#   bash benchmark/aa.sh 5      # 2 x 5 runs, the table in README.md
set -euo pipefail
n="${1:-3}"
shift || true
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -aa "$n" "$@"
