package tensor

import "sync"

// Parallel-dispatch pooling for the matvec kernels. Handing
// parallel.ForChunked a fresh closure per call would heap-allocate the
// closure and its captures on every large matvec — the 4 allocs/op
// BENCH_9 measured on the lowered dense path. Instead each kernel binds
// its operands into a pooled dispatch struct whose range closure is
// built once per pooled instance (capturing only the struct pointer),
// so the steady state allocates nothing.

const (
	mvSingle   = iota // mulVecAddRange
	mvLanes           // mulVecLanesAddRange
	mvCSRLanes        // gatherLanesRange
)

// mvDispatch rebinds one parallel matvec's operands per call.
type mvDispatch struct {
	kind   int
	m      *Matrix
	y1, x1 []float64
	b      []float64
	ys, xs [][]float64
	csr    *CSR
	srcs   [][][]float64
	xt     []float64
	run    func(lo, hi int)
}

var mvPool = sync.Pool{New: func() any {
	d := new(mvDispatch)
	d.run = func(lo, hi int) {
		switch d.kind {
		case mvSingle:
			d.m.mulVecAddRange(d.y1, d.x1, d.b, lo, hi)
		case mvLanes:
			d.m.mulVecLanesAddRange(d.ys, d.xs, d.b, lo, hi)
		case mvCSRLanes:
			d.csr.gatherLanesRange(d.ys, d.srcs, d.xt, d.b, lo, hi)
		}
	}
	return d
}}

// release clears every operand reference (so pooled instances never pin
// caller memory) and returns the dispatch to the pool.
func (d *mvDispatch) release() {
	d.m, d.csr = nil, nil
	d.y1, d.x1, d.b = nil, nil, nil
	d.ys, d.xs, d.srcs, d.xt = nil, nil, nil, nil
	mvPool.Put(d)
}
