#!/bin/sh
# bench_pairs.sh — paired A/B runs of the repository benchmark
# (perfbench/) between a parent revision and the working tree.
#
# The parent is exported with `git archive` to .bench_out/parent-<sha>/
# (kept for reuse; .bench_out/ is gitignored). Runs go one at a time and
# alternate: on pair 0, 2, 4, ... the parent runs first, on pair 1, 3,
# 5, ... the working tree does, so drift in the host's speed over the
# session falls on both sides alike. Each side's results stay in its own
# directory, .bench_out/pairs/<workload>-<sha>/{parent,change}/results,
# with one log per run next to them. At the end the script prints
# `perfbench compare` of the two sides and, per metric, on how many
# pairs the working tree won and the median change/parent ratio.
#
# Usage: sh scripts/bench_pairs.sh <parent-rev> <workload> <seed>...
#   SECONDS_PER_RUN (default 20) and TRACE (0 or 1, default 0) pass
#   through to perfbench as --seconds and --trace. Needs git and jq.
set -eu

if [ $# -lt 3 ]; then
	echo "usage: sh scripts/bench_pairs.sh <parent-rev> <workload> <seed>..." >&2
	exit 2
fi
rev=$1
workload=$2
shift 2
secs=${SECONDS_PER_RUN:-20}
trace=${TRACE:-0}
command -v jq >/dev/null 2>&1 || { echo "bench_pairs.sh: jq not found" >&2; exit 2; }

cd "$(dirname "$0")/.."
root=$(pwd)
sha=$(git rev-parse --short "$rev^{commit}")
parent="$root/.bench_out/parent-$sha"
if [ ! -f "$parent/perfbench/run.sh" ]; then
	rm -rf "$parent"
	mkdir -p "$parent"
	git archive "$sha" | tar -x -C "$parent"
fi
pairs="$root/.bench_out/pairs/$workload-$sha"
mkdir -p "$pairs/parent/logs" "$pairs/change/logs"

failed=0
# run <side> <checkout> <seed>
run() {
	echo "== $1 seed $3"
	if ! (cd "$2" && sh perfbench/run.sh --workload "$workload" --seed "$3" \
		--seconds "$secs" --trace "$trace" --out "$pairs/$1") >"$pairs/$1/logs/seed$3.log" 2>&1; then
		echo "   FAILED (see $pairs/$1/logs/seed$3.log)"
		failed=$((failed + 1))
	fi
}

i=0
for seed in "$@"; do
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$parent" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run parent "$parent" "$seed"
	fi
	i=$((i + 1))
done

sh perfbench/run.sh compare "$pairs/parent/results" "$pairs/change/results"

# Per-metric pair wins: BENCHMARK.json's end-to-end metrics, plus the
# per-layer ones on traced runs, each with its better direction.
filter='.end_to_end[] | "\(.name) \(.better)"'
if [ "$trace" = 1 ]; then
	filter='(.end_to_end[], .per_layer[]) | "\(.name) \(.better)"'
fi
echo
echo "pair wins for the working tree over $sha ($workload, trace $trace, $# pairs):"
jq -r "$filter" BENCHMARK.json | while read -r name better; do
	for seed in "$@"; do
		f="$workload-trace$trace-seed$seed.json"
		a=$(jq -r --arg m "$name" '.metrics[$m].value // empty' "$pairs/parent/results/$f" 2>/dev/null || true)
		b=$(jq -r --arg m "$name" '.metrics[$m].value // empty' "$pairs/change/results/$f" 2>/dev/null || true)
		[ -n "$a" ] && [ -n "$b" ] && echo "$a $b"
	done | awk -v name="$name" -v better="$better" '
		{
			n++
			if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) wins++
			if ($1 != 0) r[++m] = $2 / $1
		}
		END {
			if (n == 0) exit
			for (i = 2; i <= m; i++) for (j = i; j > 1 && r[j-1] > r[j]; j--) { t = r[j]; r[j] = r[j-1]; r[j-1] = t }
			med = m == 0 ? "n/a" : sprintf("%.3f", m % 2 ? r[(m+1)/2] : (r[m/2] + r[m/2+1]) / 2)
			printf "  %-32s %-6s wins %d/%d  median change/parent %s\n", name, better, wins, n, med
		}'
done

if [ "$failed" -gt 0 ]; then
	echo "$failed run(s) failed" >&2
	exit 1
fi
