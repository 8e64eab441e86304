#!/usr/bin/env bash
# Paired benchmark runs of two checkouts, and ROADMAP's paired rule applied
# to them:
#
#   bash scripts/pair.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SECONDS]
#
# Pair i runs each checkout's own `bash bench/run.sh --workload WORKLOAD
# --seed i --seconds SECONDS --trace 0` (SECONDS defaults to BENCHMARK.json's
# run_seconds), the parent first in odd pairs and the change first in even
# ones, because the second run of a pair tends to read a little faster. It
# prints one line per run, then per end-to-end metric both sides'
# q1/median/q3, the change's wins/losses/ties over the pairs, and whether
# the paired rule holds: at least ten pairs, the change better in at least
# nine tenths of them (ties count for neither side), and the medians apart,
# in the better direction, by more than the parent's interquartile range.
#
# The metric names and which direction is better come from the parent's
# BENCHMARK.json. Both checkouts are plain directories (a `git clone` of the
# parent, a copy of the change's tracked files); nothing is written outside
# their own .bench_build/ and bench/out/.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
	echo "usage: bash scripts/pair.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SECONDS]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
for dir in "$parent" "$change"; do
	if [[ ! -f $dir/BENCHMARK.json || ! -f $dir/bench/run.sh ]]; then
		echo "pair.sh: $dir is not a checkout (no BENCHMARK.json and bench/run.sh)" >&2
		exit 2
	fi
done
seconds=${5:-$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$parent/BENCHMARK.json")}

# "name better" per end-to-end metric, in BENCHMARK.json's order.
metrics=$(awk '
	/"end_to_end"/ { on = 1 }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name, $2 }
	on && /^ *\]/ { on = 0 }' "$parent/BENCHMARK.json")
if [[ -z $metrics ]]; then
	echo "pair.sh: no end_to_end metrics in $parent/BENCHMARK.json" >&2
	exit 2
fi

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# run_one SIDE DIR SEED: one fresh process; appends "side seed metric value"
# rows to $runs and prints the run's line.
run_one() {
	local side=$1 dir=$2 seed=$3 json line name value
	json=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
	line="$side seed=$seed"
	while read -r name _; do
		value=$(sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p" <<<"$json")
		if [[ -z $value ]]; then
			echo "pair.sh: $side run (seed $seed) reported no $name: $json" >&2
			exit 1
		fi
		echo "$side $seed $name $value" >>"$runs"
		line+=" $name=$value"
	done <<<"$metrics"
	echo "$line failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$json")"
}

echo "# $workload, $pairs pairs, $seconds s a run; parent $parent, change $change"
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run_one parent "$parent" "$i"
		run_one change "$change" "$i"
	else
		run_one change "$change" "$i"
		run_one parent "$parent" "$i"
	fi
done

echo
echo "| $workload | parent q1 / median / q3 | change q1 / median / q3 | change wins / losses / ties | paired rule |"
echo "|---|---|---|---|---|"
while read -r name better; do
	awk -v metric="$name" -v better="$better" -v pairs="$pairs" '
		function quantile(v, n, q,    h, lo) {
			h = (n - 1) * q
			lo = int(h)
			return lo + 1 < n ? v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]) : v[n]
		}
		function sorted(src, dst, n,    i, j, t) {
			for (i = 1; i <= n; i++) dst[i] = src[i]
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
		}
		$3 == metric { if ($1 == "parent") p[$2] = $4; else c[$2] = $4 }
		END {
			for (i = 1; i <= pairs; i++) {
				pv[i] = p[i]; cv[i] = c[i]
				d = better == "higher" ? c[i] - p[i] : p[i] - c[i]
				if (d > 0) wins++; else if (d < 0) losses++; else ties++
			}
			sorted(pv, ps, pairs); sorted(cv, cs, pairs)
			pq1 = quantile(ps, pairs, 0.25); pmed = quantile(ps, pairs, 0.5); pq3 = quantile(ps, pairs, 0.75)
			cq1 = quantile(cs, pairs, 0.25); cmed = quantile(cs, pairs, 0.5); cq3 = quantile(cs, pairs, 0.75)
			gain = better == "higher" ? cmed - pmed : pmed - cmed
			if (pairs < 10) rule = "not applicable (fewer than 10 pairs)"
			else if (wins * 10 >= pairs * 9 && gain > pq3 - pq1) rule = "holds"
			else rule = "does not hold"
			printf "| %s (%s is better) | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %d / %d / %d | %s (medians %+.1f %%, parent IQR %.4g) |\n",
				metric, better, pq1, pmed, pq3, cq1, cmed, cq3, wins, losses, ties, rule,
				pmed ? 100 * (cmed - pmed) / pmed : 0, pq3 - pq1
		}' "$runs"
done <<<"$metrics"
