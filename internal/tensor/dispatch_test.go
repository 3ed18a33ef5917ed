package tensor

import (
	"runtime"
	"testing"

	"repro/internal/rng"
)

// dispatchFixture returns a matrix and sparse views past the parallel
// thresholds plus operands for every matvec and gather kernel, and a
// run function exercising all of them in one shot: single, pair, 4-lane
// (paired Go kernel) and 8-lane (the AVX2 kernel where the CPU has it)
// matvecs, and 4- and 8-lane gathers over a multi-block view, a
// single-block view and the flat entry point.
func dispatchFixture(t testing.TB) (run func(), sink *float64) {
	r := rng.New(7)
	m := RandomMatrix(r, 256, 256, 1) // 65536 elements >= 1<<15
	x1 := make([]float64, 256)
	x2 := make([]float64, 256)
	b := make([]float64, 256)
	r.Floats(x1, -1, 1)
	r.Floats(x2, -1, 1)
	r.Floats(b, -1, 1)
	y1 := make([]float64, 256)
	y2 := make([]float64, 256)
	lanes := func(n int) (xs, ys [][]float64) {
		xs = make([][]float64, n)
		ys = make([][]float64, n)
		for k := range xs {
			xs[k] = make([]float64, 256)
			ys[k] = make([]float64, 256)
			r.Floats(xs[k], -1, 1)
		}
		return xs, ys
	}
	xs, ys := lanes(4)
	xs8, ys8 := lanes(8)
	// Both views hold over 10000 edges, so 4 lanes pass csrParallelMin;
	// the single-block view reads the multi-block view's block 0.
	multi := randomCSR(t, r, []int{300, 100, 100}, []int{0, 1, 2}, 256, 0.15)
	single := randomCSR(t, r, []int{300}, []int{0}, 256, 0.15)
	if min(len(multi.c.W), len(single.c.W))*4 < csrParallelMin {
		t.Fatal("CSR fixture below the parallel threshold")
	}
	srcs := make([][][]float64, 8)
	flat := make([][]float64, 8)
	for k := range srcs {
		srcs[k] = multi.sources(r)
		flat[k] = srcs[k][0]
	}
	var s float64
	return func() {
		m.MulVecAddTo(y1, x1, b)
		m.MulVec2AddTo(y1, x1, y2, x2, b)
		m.MulVecLanesAddTo(ys, xs, b)
		m.MulVecLanesAddTo(ys8, xs8, b)
		for _, n := range []int{4, 8} {
			multi.c.GatherLanesAddTo(ys8[:n], srcs[:n], b)
			single.c.GatherLanesAddTo(ys8[:n], srcs[:n], b)
			single.c.GatherLanesFlatAddTo(ys8[:n], flat[:n], b)
		}
		s += y1[0] + y2[0] + ys[0][0] + ys8[7][0]
	}, &s
}

// TestParallelMatvecSteadyStateAllocs is the regression test for the 4
// allocs/op BENCH_9 measured on the lowered dense path: above the
// parallel threshold each matvec used to allocate its dispatch closure
// (and, under real parallelism, the per-call goroutine state). The
// pooled dispatch must make the steady state allocation-free.
// AllocsPerRun pins GOMAXPROCS to 1, which exercises the pooled
// dispatch structs on the serial path.
func TestParallelMatvecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get")
	}
	run, sink := dispatchFixture(t)
	for i := 0; i < 10; i++ {
		run() // warm the dispatch pool
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("parallel matvec steady state allocates %.1f/op, want 0", allocs)
	}
	_ = *sink
}

// TestParallelMatvecDispatchAllocsParallel covers the path AllocsPerRun
// cannot (it pins GOMAXPROCS to 1): with real helper workers enlisted,
// the persistent-worker dispatch must still be allocation-free per
// call. Measured by Mallocs delta because the goroutine hand-off happens
// on other Ps.
func TestParallelMatvecDispatchAllocsParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get")
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	run, sink := dispatchFixture(t)
	for i := 0; i < 50; i++ {
		run() // boot the persistent workers, warm every pool shard
	}
	const iters = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / iters
	// Allow a whisker of slack for pool-shard misses when the runtime
	// migrates goroutines between Ps mid-measurement.
	if perOp > 0.5 {
		t.Fatalf("parallel matvec dispatch allocates %.2f/op under GOMAXPROCS=4, want ~0", perOp)
	}
	_ = *sink
}
