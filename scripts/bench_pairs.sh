#!/usr/bin/env bash
# Interleaved parent/change pairs of the end-to-end benchmark, judged
# the way a claimed gain is judged: N pairs, each on a fresh seed,
# alternating which checkout runs first. For every end-to-end metric it
# prints each side's median and quartiles, the median shift, how many
# pairs the change won (ties count for neither) and a verdict:
#
#   gain   the change won >= 9/10 of the pairs and its median is better
#          by more than the distance between the parent's quartiles;
#   worse  the change's median is worse than the parent's by more than
#          the metric's bound in BENCHMARK.json;
#   ok     neither.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [SECONDS] [FIRST_SEED]
#
# Both directories are checkouts with a benchmark/run.sh (each builds
# its own binary under its benchmark/out). SECONDS defaults to 30, the
# run length in BENCHMARK.json; pair i uses seed FIRST_SEED+i-1
# (default FIRST_SEED 1). The raw result lines are kept in a temporary
# directory whose path is printed first.
set -euo pipefail

if [ $# -lt 4 ]; then
	sed -n 's/^#   //p' "$0" >&2
	exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
n="$4"
seconds="${5:-30}"
first="${6:-1}"
spec="$change/BENCHMARK.json"
out="$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")"
echo "results: $out"

# run SIDE DIR SEED appends the run's result line to $out/SIDE.jsonl.
run() {
	bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" \
		--seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$1.jsonl"
}

for ((i = 0; i < n; i++)); do
	seed=$((first + i))
	if ((i % 2 == 0)); then
		run parent "$parent" "$seed"
		run change "$change" "$seed"
	else
		run change "$change" "$seed"
		run parent "$parent" "$seed"
	fi
	echo "pair $((i + 1))/$n (seed $seed) done" >&2
done

# value METRIC SIDE prints the metric's value from each of SIDE's runs,
# one per line, in pair order.
value() {
	grep -o "\"$1\":{\"value\":[^,}]*" "$out/$2.jsonl" | sed 's/.*://'
}

# counts SIDE prints "attempted failed" summed over SIDE's runs.
counts() {
	sed 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\).*/\1 \2/' "$out/$1.jsonl" |
		awk '{a += $1; f += $2} END {print a, f}'
}

printf '%-16s %8s %8s  failed parent %s/%s, change %s/%s\n' \
	"$workload" "x$n" "${seconds}s" $(counts parent | awk '{print $2, $1}') $(counts change | awk '{print $2, $1}')
printf '%-16s %-30s %-30s %8s %6s %s\n' metric "parent median [q1 q3]" "change median [q1 q3]" shift wins verdict

# Metric names come from the result lines (an untraced run reports the
# end-to-end metrics only); direction and bound from BENCHMARK.json.
for m in $(grep -o '"[a-z0-9_.]*":{"value"' "$out/parent.jsonl" | sed 's/"\(.*\)":.*/\1/' | sort -u); do
	dir_bound="$(awk -v m="$m" '
		/"name":/ { split($0, f, "\""); name = f[4] }
		/"better":/ && name == m { split($0, f, "\""); better = f[4] }
		/"bound":/ && name == m { gsub(/[^0-9.]/, "", $2); bound = $2 }
		END { print better, bound }' "$spec")"
	paste <(value "$m" parent) <(value "$m" change) | awk -v m="$m" -v db="$dir_bound" '
		function sortv(a, k,    i, j, t) {
			for (i = 2; i <= k; i++)
				for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		}
		# q: quartile k of sorted a[1..c], Python statistics.quantiles
		# "exclusive" method (the benchmark'"'"'s quartileSpread).
		function q(a, c, k,    pos, j) {
			pos = k * (c + 1) / 4; j = int(pos)
			if (j < 1) return a[1]
			if (j >= c) return a[c]
			return a[j] + (a[j+1] - a[j]) * (pos - j)
		}
		{
			c++; p[c] = $1; x[c] = $2
			if (hi ? $2 > $1 : $2 < $1) wins++
		}
		BEGIN { split(db, f, " "); hi = (f[1] == "higher"); bound = f[2] + 0 }
		END {
			sortv(p, c); sortv(x, c)
			pm = q(p, c, 2); xm = q(x, c, 2); iqr = q(p, c, 3) - q(p, c, 1)
			shift = pm != 0 ? (xm - pm) / pm : 0
			better = hi ? xm - pm : pm - xm
			verdict = "ok"
			if (wins * 10 >= 9 * c && better > iqr) verdict = "gain"
			else if (bound > 0 && -better > bound * (pm < 0 ? -pm : pm)) verdict = "worse"
			printf "%-16s %-30s %-30s %+7.1f%% %3d/%-2d %s\n", m,
				sprintf("%.4g [%.4g %.4g]", pm, q(p, c, 1), q(p, c, 3)),
				sprintf("%.4g [%.4g %.4g]", xm, q(x, c, 1), q(x, c, 3)),
				100 * shift, wins, c, verdict
		}'
done
