GO ?= go

.PHONY: ci fmt vet vet-bench cross build test race bench bench-conv bench-batch bench-exhaustive bench-graph bench-graph-batch bench-store bench-snapshot bench-pairs fuzz-smoke staticcheck vuln serve-smoke load-smoke

ci: fmt vet vet-bench cross staticcheck vuln build test bench bench-conv bench-batch bench-exhaustive bench-graph bench-graph-batch bench-store fuzz-smoke serve-smoke load-smoke

fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "$$out"; echo "gofmt: files need formatting"; exit 1; }

vet:
	$(GO) vet ./...

# perfbench/ is a nested module, so ./... never compiles it: vet it on
# its own so an internal API change that breaks the benchmark fails
# here, not when the benchmark next runs.
vet-bench:
	cd perfbench && $(GO) vet .

# Keeps the non-amd64 file split building: off amd64 the pure-Go lane
# kernels are the only path (on amd64, vet's asmdecl check covers the
# assembly).
cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

build:
	$(GO) build ./...

# -shuffle=on randomises test order so inter-test state dependencies
# cannot hide.
test:
	$(GO) test -shuffle=on ./...

# Race coverage for the worker-pool scenario engine, pooled scratch and
# the goroutine message-passing runtime.
race:
	$(GO) test -race -shuffle=on ./...

# Short smoke of the hot-path microbenchmarks (fixed iteration count so
# it stays fast on slow runners). Full runs: go test -bench . -benchtime=2s
bench:
	$(GO) test -run '^$$' -bench 'Forward|Faulted' -benchtime=100x -benchmem .

# Native-vs-lowered conv smoke (BENCH_4.json workload): keeps the native
# conv path honest — TestConvNativeSpeedSmoke FAILS if the native and
# lowered timings converge (i.e. the native path regressed to dense
# lowering); the benchmark run prints the current columns.
bench-conv:
	NEUROFAIL_BENCH_CONV=1 $(GO) test -run 'TestConvNativeSpeedSmoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkConv(Forward|FaultedForward)' -benchtime=20x -benchmem .

# Batched-vs-scalar engine smoke (BENCH_7.json workload): keeps the
# fused multi-lane path honest — TestBatchedSpeedSmoke FAILS if the
# batched sweep stops clearly beating the scalar one-at-a-time engine;
# the benchmark run prints the current scalar/batched columns.
bench-batch:
	NEUROFAIL_BENCH_BATCH=1 $(GO) test -run 'TestBatchedSpeedSmoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkBatchedSweep' -benchtime=5x -benchmem .

# Tree-vs-flat exhaustive search smoke (BENCH_8.json workload): keeps
# the tree-structured engine honest — TestExhaustiveSpeedSmoke FAILS if
# the prefix-sharing + pruning sweep stops clearly beating the flat
# enumeration, or if the two engines disagree on the worst error; the
# benchmark run prints the current exhaustive-search columns.
bench-exhaustive:
	NEUROFAIL_BENCH_EXHAUSTIVE=1 $(GO) test -run 'TestExhaustiveSpeedSmoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkExhaustiveSearch' -benchtime=5x -benchmem .

# Graph-native-vs-lowered smoke (BENCH_9.json workload): keeps the
# sparse-DAG CSR engine honest — TestGraphNativeSpeedSmoke FAILS if the
# native path stops clearly beating the lowered dense twin, or if the
# two engines disagree bitwise on the damaged outputs; the benchmark
# run prints the current columns.
bench-graph:
	NEUROFAIL_BENCH_GRAPH=1 $(GO) test -run 'TestGraphNativeSpeedSmoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkGraph(Forward|FaultedForward)' -benchtime=20x -benchmem .

# Batched-vs-scalar smoke on the sparse-DAG engine (BENCH_10.json
# shape, with faults that make every damaged level whole):
# keeps the grouped lane kernel honest — TestGraphBatchSpeedSmoke FAILS
# if the batched DAG sweep stops clearly beating the scalar
# one-at-a-time engine (the shape of the lane-by-lane fallback it
# replaced), or if the two engines disagree bitwise on any lane;
# TestGraphMonteCarloInputLanesSmoke FAILS if the campaign-graph Monte
# Carlo job over 8 inputs, whose (trial, input) lanes share each
# trial's plan, stops costing at most 1/1.3 per (trial, input) of the
# job over 1 input. The benchmark run prints the current row-path
# scalar/batched and flat/tree exhaustive columns, the campaign-graph
# Monte Carlo job over 8 inputs and over 1 with its recomputed rows
# (rows/op), and the row-list vs lane-kernel crossover behind the
# engine's rowFrac (BENCH_19.json).
bench-graph-batch:
	NEUROFAIL_BENCH_GRAPH_BATCH=1 $(GO) test -run 'TestGraph(BatchSpeed|MonteCarloInputLanes)Smoke' -count=1 -v .
	$(GO) test -run '^$$' -bench 'BenchmarkGraph(BatchedSweep|Exhaustive|MonteCarlo|RowCrossover)' -benchtime=5x -benchmem .

# Store Put-vs-size smoke: keeps store.Put O(1) in the store size —
# TestStorePutFlatSmoke FAILS if a Put into a store of 10,000 artifacts
# costs more than 3x a Put into one of 100, journal folds included; the
# benchmark run prints Put at 100 / 1,000 / 10,000 existing artifacts
# at an iteration count that crosses a fold on every size.
bench-store:
	NEUROFAIL_BENCH_STORE=1 $(GO) test -run 'TestStorePutFlatSmoke' -count=1 -v ./internal/store
	$(GO) test -run '^$$' -bench 'BenchmarkStorePut' -benchtime=10000x ./internal/store

# Regenerates a BENCH_N.json skeleton from the gated benchmark suite:
# runs the acceptance benchmarks, parses the `go test -bench` output,
# and emits the environment + acceptance stanzas so PR snapshots stop
# being hand-assembled. Usage: make bench-snapshot N=11 [> BENCH_11.json]
bench-snapshot:
	sh scripts/bench_snapshot.sh $(N)

# Paired A/B runs of the repository benchmark: the working tree against
# a parent revision, alternating which side runs first, then the
# perfbench comparison and per-metric pair wins. Not part of ci: each
# pair is two full benchmark runs.
# Usage: make bench-pairs REV=HEAD~1 WORKLOAD=campaign-graph SEEDS="911 912 913"
bench-pairs:
	sh scripts/bench_pairs.sh $(REV) $(WORKLOAD) $(SEEDS)

# Short coverage-guided runs of every fuzz target, starting from the
# committed seed corpora (testdata/fuzz/ in each package). Any crasher
# or invariant violation fails the target; in normal `go test` runs the
# committed corpus entries already execute as plain unit cases.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzNetworkJSON$$' -fuzztime=10s ./internal/nn
	$(GO) test -fuzz='^FuzzParseModel$$' -fuzztime=10s ./internal/conv
	$(GO) test -fuzz='^FuzzGraphJSON$$' -fuzztime=10s ./internal/graph
	$(GO) test -fuzz='^FuzzOpenManifest$$' -fuzztime=10s ./internal/store
	$(GO) test -fuzz='^FuzzOpenJournal$$' -fuzztime=10s ./internal/store

# Static analysis beyond vet. Skips with a notice when the binary is
# not on PATH (CI installs it; local runs without it stay usable).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

# Known-vulnerability scan of the module graph and reachable calls.
# Same graceful local skip as staticcheck.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi

# End-to-end smoke of the query service: build the CLI, boot `neurofail
# serve` against a fresh store, hit /healthz and one /v1/bounds query,
# and verify a clean SIGTERM shutdown.
serve-smoke:
	$(GO) build -o /tmp/neurofail-smoke ./cmd/neurofail
	sh scripts/serve_smoke.sh /tmp/neurofail-smoke

# Quick load smoke, driven through the CLI and curl: boots the server
# with the async job tier, queues Monte Carlo campaigns, runs concurrent
# curl clients on /v1/bounds while they are queued, and asserts every
# request returned 2xx, a non-zero RPS, every campaign done, a memo hit
# on resubmission, and a graceful SIGTERM drain.
load-smoke:
	$(GO) build -o /tmp/neurofail-smoke ./cmd/neurofail
	sh scripts/load_smoke.sh /tmp/neurofail-smoke
