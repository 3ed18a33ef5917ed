#!/bin/sh
# bench_snapshot.sh N — run the gated acceptance benchmarks and emit a
# BENCH_N.json skeleton on stdout, so PR snapshots stop being
# hand-assembled: the environment stanza and the per-benchmark
# ns/B/allocs columns are filled in from a live `go test -bench` run;
# the exhaustive-search benchmarks also carry their visited/pruned
# configurations per search, so snapshots record pruning power; the
# narrative fields (title, notes, pre_pr numbers where a PR
# measures against a stashed baseline) stay "FILL ME" for the author.
#
# Usage: sh scripts/bench_snapshot.sh 11 > BENCH_11.json
#   BENCH_REGEX (default: the per-subsystem gate benchmarks) and
#   BENCHTIME (default 5x) narrow or deepen the run.
set -eu

N="${1:?usage: bench_snapshot.sh N (the BENCH_N.json ordinal)}"
BENCH_REGEX="${BENCH_REGEX:-BenchmarkConv(Forward|FaultedForward)|BenchmarkBatchedSweep|BenchmarkExhaustiveSearch|BenchmarkGraph(Forward|FaultedForward|BatchedSweep|Exhaustive)}"
BENCHTIME="${BENCHTIME:-5x}"

out="$(go test -run '^$' -bench "$BENCH_REGEX" -benchtime "$BENCHTIME" -benchmem .)"

printf '%s\n' "$out" | awk -v n="$N" -v date="$(date -u +%Y-%m-%d)" -v vcpus="$(nproc 2>/dev/null || echo 1)" '
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    ns = $3; bytes = "0"; allocs = "0"; extra = ""
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")       bytes  = $(i - 1)
        if ($i == "allocs/op")  allocs = $(i - 1)
        if ($i == "visited/op") extra = extra sprintf(", \"visited_per_op\": %s", $(i - 1))
        if ($i == "pruned/op")  extra = extra sprintf(", \"pruned_per_op\": %s", $(i - 1))
    }
    names[++count] = name; nss[count] = ns; bs[count] = bytes; as[count] = allocs; xs[count] = extra
}
END {
    printf "{\n"
    printf "  \"pr\": %d,\n", n
    printf "  \"title\": \"FILL ME\",\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"environment\": {\n"
    printf "    \"goos\": \"%s\",\n", goos
    printf "    \"goarch\": \"%s\",\n", goarch
    printf "    \"goamd64\": \"v1\",\n"
    printf "    \"cpu\": \"%s\",\n", cpu
    printf "    \"vcpus\": %d,\n", vcpus
    printf "    \"note\": \"FILL ME: host caveats, fixture shapes, measurement protocol\"\n"
    printf "  },\n"
    printf "  \"acceptance\": {\n"
    for (i = 1; i <= count; i++)
        printf "    \"%s\": { \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s },\n", names[i], nss[i], bs[i], as[i], xs[i]
    printf "    \"note\": \"FILL ME: which gates these numbers clear and why\"\n"
    printf "  }\n"
    printf "}\n"
}'
