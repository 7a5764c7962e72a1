#!/usr/bin/env bash
# The performance gate: the end-to-end benchmark of this checkout
# against a base ref, as interleaved pairs on this one host, for every
# workload in BENCHMARK.json. Figures from different hosts or sessions
# are never compared, only runs taken side by side here.
#
#   scripts/bench_gate.sh BASE_REF
#
# BASE_REF is checked out into a temporary git worktree (removed on
# exit), and scripts/bench_pairs.sh runs 3 pairs of 10 s runs per
# workload. A workload with any end-to-end metric whose verdict is
# "worse" (its median worse than the base's by more than the metric's
# bound in BENCHMARK.json) is run again alone at 10 pairs, and the gate
# exits 1 only if a metric still reads "worse" there: 3 pairs on a
# shared host can read an unchanged 0.2 s setup_s as 35 % worse. A
# failed run or a run whose output is incorrect aborts it non-zero. It
# takes about 5 minutes on 2 CPUs, plus about 5 per confirmed workload;
# run nothing else meanwhile.
set -euo pipefail

if [ $# -ne 1 ]; then
	sed -n 's/^#   //p' "$0" >&2
	exit 2
fi
readonly pairs=3 confirm=10 seconds=10

cd "$(dirname "$0")/.."
tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench-gate.XXXXXX")"
base="$tmp/base"
cleanup() {
	git worktree remove --force "$base" 2>/dev/null || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$base" "$1"

# The workload names: every "name" inside BENCHMARK.json's workloads
# array.
workloads="$(awk '/"workloads"/ { on = 1 } on && /"name"/ { split($0, f, "\""); print f[4] } on && /^  \]/ { exit }' BENCHMARK.json)"

for w in $workloads; do
	bash scripts/bench_pairs.sh "$base" . "$w" "$pairs" "$seconds" | tee "$tmp/pairs.txt"
	if grep -q ' worse$' "$tmp/pairs.txt"; then
		echo "bench gate: $w reads worse at $pairs pairs; confirming at $confirm" >&2
		bash scripts/bench_pairs.sh "$base" . "$w" "$confirm" "$seconds" | tee "$tmp/pairs.txt"
	fi
	grep ' worse$' "$tmp/pairs.txt" | sed "s/^/$w: /" >>"$tmp/worse.txt" || true
done

if [ -s "$tmp/worse.txt" ]; then
	echo "bench gate: FAIL against $1, worse beyond the bound:" >&2
	cat "$tmp/worse.txt" >&2
	exit 1
fi
echo "bench gate: ok against $1"
