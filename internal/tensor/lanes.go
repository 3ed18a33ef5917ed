package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// Multi-lane fused kernels: one sweep over the matrix serves K
// right-hand sides at once. The batched plan evaluator leans on these —
// when P damaged sweeps share a weight matrix, the matrix streams from
// L2 once per P lanes instead of once per lane, which is the structural
// win past the scalar load-port floor (BENCH_1.json's floor analysis).
//
// Every lane reproduces the exact four-way accumulation order of Dot,
// so lane k of MulVecLanesAddTo is bit-identical to a MulVecAddTo call
// with the same right-hand side: batching changes cache behaviour, never
// results.

// MulVecLanesAddTo computes ys[k] = M xs[k] + b for every lane k in one
// sweep over the matrix. b may be nil. len(ys) must equal len(xs); each
// xs[k] has length Cols, each ys[k] length Rows. Outputs must not alias
// any input. Lanes may share a right-hand side (xs[i] and xs[j] may be
// the same slice), which the batched evaluator uses for lanes that
// diverge at the same layer of one clean trace.
//
// Large matrices distribute row ranges over goroutines, like
// MulVecAddTo.
func (m *Matrix) MulVecLanesAddTo(ys, xs [][]float64, b []float64) {
	if len(ys) != len(xs) {
		panic(fmt.Sprintf("tensor: MulVecLanesAddTo %d outputs for %d lanes", len(ys), len(xs)))
	}
	for k := range xs {
		if len(xs[k]) != m.Cols {
			panic(fmt.Sprintf("tensor: MulVecLanesAddTo lane %d dim mismatch: %dx%d by %d", k, m.Rows, m.Cols, len(xs[k])))
		}
		if len(ys[k]) != m.Rows {
			panic(fmt.Sprintf("tensor: MulVecLanesAddTo lane %d output length %d, want %d", k, len(ys[k]), m.Rows))
		}
	}
	if b != nil && len(b) != m.Rows {
		panic("tensor: MulVecLanesAddTo bias length mismatch")
	}
	if len(xs) == 0 {
		return
	}
	if m.Rows*m.Cols >= 1<<15 {
		d := mvPool.Get().(*mvDispatch)
		d.kind, d.m, d.ys, d.xs, d.b = mvLanes, m, ys, xs, b
		parallel.ForChunked(m.Rows, 16, d.run)
		d.release()
		return
	}
	m.mulVecLanesAddRange(ys, xs, b, 0, m.Rows)
}

// mulVecLanesAddRange is the serial core: rows outer, lanes inner, so a
// row is loaded from the matrix once per lane group and stays hot in L1
// for every lane. On CPUs with AVX2 (hasAVX2, decided from CPUID) whole
// groups of eight lanes go through dot8; the remaining lanes — and every
// lane elsewhere — go through the pure-Go dotPair in pairs. Pairs are
// the widest group scalar code sustains: dotPair's 8 accumulators plus 4
// row values fit the 16 registers, while a 4-lane scalar kernel's 16
// accumulators spill to the stack and measured 20-30% slower than pairs
// (BENCH_1 reference machine). Eight lanes fit only because each YMM
// register holds a lane's four partial sums. Per (row, lane) the
// accumulation is Dot's four-way order on either path, keeping each
// lane bit-identical to the single-lane kernel.
func (m *Matrix) mulVecLanesAddRange(ys, xs [][]float64, b []float64, lo, hi int) {
	cols := m.Cols
	data := m.Data
	groups := 0
	if hasAVX2 {
		groups = len(xs) / 8
	}
	for r := lo; r < hi; r++ {
		row := data[r*cols : r*cols+cols]
		k := 0
		for ; k < 8*groups; k += 8 {
			dot8(row, (*[8][]float64)(xs[k:k+8]), (*[8][]float64)(ys[k:k+8]), r)
		}
		for ; k+2 <= len(xs); k += 2 {
			ys[k][r] = dotPair(row, xs[k], xs[k+1], &ys[k+1][r])
		}
		if k < len(xs) {
			ys[k][r] = Dot(row, xs[k])
		}
		if b != nil {
			for k := range ys {
				ys[k][r] += b[r]
			}
		}
	}
}

// dot8 stores Dot(row, xs[j]) into ys[j][r] for eight lanes. dot8x4
// returns each lane's four partial sums over the whole 4-column blocks;
// the tail columns and the reduction stay in Go as the same expressions
// Dot evaluates, so each result is bitwise Dot's. Only amd64 with AVX2
// calls it.
func dot8(row []float64, xs, ys *[8][]float64, r int) {
	var acc [32]float64
	dot8x4(row, xs, &acc)
	tail := len(row) &^ 3
	for j := range xs {
		s0, s1, s2, s3 := acc[4*j], acc[4*j+1], acc[4*j+2], acc[4*j+3]
		x := xs[j][:len(row)]
		for i := tail; i < len(row); i++ {
			s0 += row[i] * x[i]
		}
		ys[j][r] = s0 + s1 + s2 + s3
	}
}

// l2Block is the k/j tile edge of MatMulBlockedInto: a 128x128 float64
// tile of B is 128 KiB, sized so one B tile plus the C and A rows
// sweeping it stay resident in a typical 256 KiB - 1 MiB L2 while the
// i loop streams over it.
const l2Block = 128

// MatMulBlockedInto computes C = A B into a caller-provided C using an
// i-k-j kernel tiled for L2 (tile edge l2Block): each B tile is loaded
// once and every row of A sweeps it before it is evicted. Row chunks
// distribute over goroutines for large products. For every (i, j) the
// additions over k happen in ascending k order exactly as in the naive
// triple loop, so the result is bit-identical to matMulNaive (and to
// MatMul, which wraps this).
func MatMulBlockedInto(c, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBlockedInto dim mismatch: %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBlockedInto output is %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	Fill(c.Data, 0)
	blocked := func(lo, hi int) {
		for k0 := 0; k0 < a.Cols; k0 += l2Block {
			k1 := k0 + l2Block
			if k1 > a.Cols {
				k1 = a.Cols
			}
			for j0 := 0; j0 < b.Cols; j0 += l2Block {
				j1 := j0 + l2Block
				if j1 > b.Cols {
					j1 = b.Cols
				}
				for i := lo; i < hi; i++ {
					ci := c.Row(i)[j0:j1]
					ai := a.Row(i)
					for k := k0; k < k1; k++ {
						Axpy(ai[k], b.Row(k)[j0:j1], ci)
					}
				}
			}
		}
	}
	if a.Rows*a.Cols*b.Cols >= 1<<17 {
		parallel.ForChunked(a.Rows, 32, blocked)
		return
	}
	blocked(0, a.Rows)
}
