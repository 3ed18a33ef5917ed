package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// Matrix is a dense row-major matrix. Row r occupies
// Data[r*Cols : (r+1)*Cols].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for r, row := range rows {
		if len(row) != cols {
			panic("tensor: FromRows ragged input")
		}
		copy(m.Row(r), row)
	}
	return m
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set stores v at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a mutable view of row r.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MaxAbs returns the largest absolute entry (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 { return MaxAbs(m.Data) }

// Apply replaces each entry x with f(x) in place.
func (m *Matrix) Apply(f func(float64) float64) { Apply(m.Data, f) }

// Scale multiplies every entry by alpha in place.
func (m *Matrix) Scale(alpha float64) { Scale(alpha, m.Data) }

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out.Data[c*out.Cols+r] = v
		}
	}
	return out
}

// EqualApprox reports elementwise equality within tol.
func (m *Matrix) EqualApprox(other *Matrix, tol float64) bool {
	return m.Rows == other.Rows && m.Cols == other.Cols &&
		EqualApprox(m.Data, other.Data, tol)
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for r := 0; r < m.Rows; r++ {
			s += fmt.Sprintf("\n  %v", m.Row(r))
		}
	}
	return s
}

// MulVec computes y = M x. It panics on dimension mismatch. The rows are
// processed in parallel for large matrices.
func (m *Matrix) MulVec(x []float64) []float64 {
	y := make([]float64, m.Rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = M x into a caller-provided y of length Rows.
func (m *Matrix) MulVecTo(y, x []float64) { m.MulVecAddTo(y, x, nil) }

// MulVecAddTo computes y = M x + b in one sweep over the matrix (the
// fused matvec-plus-bias kernel of the forward pass). b may be nil, in
// which case it computes a plain matvec. y must not alias x or b. Large
// matrices distribute row ranges over goroutines.
func (m *Matrix) MulVecAddTo(y, x, b []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVecAddTo dim mismatch: %dx%d by %d", m.Rows, m.Cols, len(x)))
	}
	if len(y) != m.Rows {
		panic("tensor: MulVecAddTo output length mismatch")
	}
	if b != nil && len(b) != m.Rows {
		panic("tensor: MulVecAddTo bias length mismatch")
	}
	if m.Rows*m.Cols >= 1<<15 {
		d := mvPool.Get().(*mvDispatch)
		d.kind, d.m, d.y1, d.x1, d.b = mvSingle, m, y, x, b
		parallel.ForChunked(m.Rows, 16, d.run)
		d.release()
		return
	}
	m.mulVecAddRange(y, x, b, 0, m.Rows)
}

// MulVecAddRange computes y[lo:hi] = (M x + b)[lo:hi]: the row-range
// variant of MulVecAddTo, for callers that sweep a matrix in segments.
func (m *Matrix) MulVecAddRange(y, x, b []float64, lo, hi int) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVecAddRange dim mismatch: %dx%d by %d", m.Rows, m.Cols, len(x)))
	}
	if len(y) != m.Rows || lo < 0 || hi > m.Rows || lo > hi {
		panic("tensor: MulVecAddRange bad output or range")
	}
	if b != nil && len(b) != m.Rows {
		panic("tensor: MulVecAddRange bias length mismatch")
	}
	m.mulVecAddRange(y, x, b, lo, hi)
}

// mulVecAddRange is the serial matvec kernel: two rows per iteration
// share the loads of x, and each row keeps the exact four-way
// accumulation order of Dot, so results are bit-identical to calling Dot
// row by row.
func (m *Matrix) mulVecAddRange(y, x, b []float64, lo, hi int) {
	cols := m.Cols
	data := m.Data
	r := lo
	for ; r+2 <= hi; r += 2 {
		row0 := data[r*cols : r*cols+cols]
		row1 := data[(r+1)*cols : (r+1)*cols+cols]
		x := x[:len(row0)]
		var a0, a1, a2, a3, c0, c1, c2, c3 float64
		i := 0
		for ; i+4 <= len(row0); i += 4 {
			x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
			a0 += row0[i] * x0
			a1 += row0[i+1] * x1
			a2 += row0[i+2] * x2
			a3 += row0[i+3] * x3
			c0 += row1[i] * x0
			c1 += row1[i+1] * x1
			c2 += row1[i+2] * x2
			c3 += row1[i+3] * x3
		}
		for ; i < len(row0); i++ {
			a0 += row0[i] * x[i]
			c0 += row1[i] * x[i]
		}
		y[r] = a0 + a1 + a2 + a3
		y[r+1] = c0 + c1 + c2 + c3
		if b != nil {
			y[r] += b[r]
			y[r+1] += b[r+1]
		}
	}
	for ; r < hi; r++ {
		row := data[r*cols : r*cols+cols]
		x := x[:len(row)]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= len(row); i += 4 {
			s0 += row[i] * x[i]
			s1 += row[i+1] * x[i+1]
			s2 += row[i+2] * x[i+2]
			s3 += row[i+3] * x[i+3]
		}
		for ; i < len(row); i++ {
			s0 += row[i] * x[i]
		}
		y[r] = s0 + s1 + s2 + s3
		if b != nil {
			y[r] += b[r]
		}
	}
}

// dotPair accumulates Dot(row, x1) (returned) and Dot(row, x2) (stored in
// *d2) with the exact same accumulation order as Dot, sharing the row
// loads between the two products.
func dotPair(row, x1, x2 []float64, d2 *float64) float64 {
	x1 = x1[:len(row)]
	x2 = x2[:len(row)]
	var a0, a1, a2, a3 float64
	var b0, b1, b2, b3 float64
	i := 0
	for ; i+4 <= len(row); i += 4 {
		r0, r1, r2, r3 := row[i], row[i+1], row[i+2], row[i+3]
		a0 += r0 * x1[i]
		a1 += r1 * x1[i+1]
		a2 += r2 * x1[i+2]
		a3 += r3 * x1[i+3]
		b0 += r0 * x2[i]
		b1 += r1 * x2[i+1]
		b2 += r2 * x2[i+2]
		b3 += r3 * x2[i+3]
	}
	for ; i < len(row); i++ {
		a0 += row[i] * x1[i]
		b0 += row[i] * x2[i]
	}
	*d2 = b0 + b1 + b2 + b3
	return a0 + a1 + a2 + a3
}

// MulVecT computes y = Mᵀ x (x has length Rows, result length Cols)
// without materialising the transpose.
func (m *Matrix) MulVecT(x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVecT dim mismatch: %dx%d by %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Cols)
	for r := 0; r < m.Rows; r++ {
		Axpy(x[r], m.Row(r), y)
	}
	return y
}

// AddOuterScaled accumulates M += alpha * u vᵀ (rank-1 update).
func (m *Matrix) AddOuterScaled(alpha float64, u, v []float64) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic("tensor: AddOuterScaled dim mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		Axpy(alpha*u[r], v, m.Row(r))
	}
}

// gemmBlock is the cache-block edge for MatMul.
const gemmBlock = 64

// MatMul returns C = A B using the cache-blocked i-k-j kernel of
// MatMulBlockedInto. For every (i, j) the additions over k happen in
// ascending order, so the result is bit-identical to the naive triple
// loop at any tile size.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul dim mismatch: %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	MatMulBlockedInto(c, a, b)
	return c
}

// MatMulTransBInto computes C = A Bᵀ into a caller-provided C
// (A.Rows x B.Rows; A.Cols must equal B.Cols). With both operands
// row-major this is the natural batched-forward kernel: row i of A is an
// input, row j of B a neuron's weights, and C[i][j] their dot product —
// every access is sequential. Row blocks are distributed over goroutines
// for large products.
func MatMulTransBInto(c, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB dim mismatch: %dx%d by (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB output is %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	blocked := func(lo, hi int) {
		// Tile over B's rows so a block of weights stays cached while
		// each input row sweeps it.
		for j0 := 0; j0 < b.Rows; j0 += gemmBlock {
			j1 := j0 + gemmBlock
			if j1 > b.Rows {
				j1 = b.Rows
			}
			for i := lo; i < hi; i++ {
				ai := a.Row(i)
				ci := c.Row(i)
				for j := j0; j < j1; j++ {
					ci[j] = Dot(ai, b.Row(j))
				}
			}
		}
	}
	if a.Rows*a.Cols*b.Rows >= 1<<17 {
		parallel.ForChunked(a.Rows, gemmBlock/4, blocked)
		return
	}
	blocked(0, a.Rows)
}

// matMulNaive is the reference triple loop used by tests.
func matMulNaive(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// RandomMatrix returns a rows x cols matrix with entries uniform in
// [-scale, scale).
func RandomMatrix(r *rng.Rand, rows, cols int, scale float64) *Matrix {
	m := NewMatrix(rows, cols)
	r.Floats(m.Data, -scale, scale)
	return m
}

// GlorotMatrix returns a rows x cols matrix with the Glorot/Xavier uniform
// initialisation bound sqrt(6/(rows+cols)), the usual choice for sigmoid
// networks.
func GlorotMatrix(r *rng.Rand, rows, cols int) *Matrix {
	bound := math.Sqrt(6.0 / float64(rows+cols))
	return RandomMatrix(r, rows, cols, bound)
}

// Frobenius returns the Frobenius norm of m.
func (m *Matrix) Frobenius() float64 { return Norm2(m.Data) }
