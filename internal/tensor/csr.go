package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// CSR is a compressed-sparse-row gather view over a virtual column
// concatenation of source blocks, stored accumulator-split: each row's
// edges are partitioned into four runs, one per accumulator of the
// dense kernel (Dot), so the kernels sum without a per-edge branch.
// Row r's run a is edges Seg[4r+a]..Seg[4r+a+1]; edge e reads value
// Idx[e] of source block Lvl[e] with weight W[e]. When every edge reads
// one block, Lvl is nil and Level names that block.
//
// Dot over a concatenation n columns wide adds column i into
// accumulator i&3 when i < n&^3 and the tail columns into accumulator
// 0, each accumulator in ascending column order. NewCSR sends every
// edge to its column's run and keeps edge order inside a run, so run a
// holds exactly accumulator a's nonzero terms in Dot's order (tail
// edges land last in run 0 because columns ascend). Absent edges are
// exact zeros in the dense row, and a zero term never changes an
// accumulator that starts at +0, so every kernel below is bitwise
// Dot(denseRow, concatenation), with the bias added after the
// reduction.
type CSR struct {
	Rows  int
	Seg   []int // 4*Rows+1 run boundaries
	Lvl   []int // per-edge source block; nil for single-block views
	Level int   // the source block of a single-block view
	Idx   []int
	W     []float64
}

// NewCSR builds the accumulator-split view of row-sorted edges: row r
// owns edges ptr[r]..ptr[r+1], and edge e reads value idx[e] of source
// block lvl[e] with weight w[e]. Block v starts at column off[v] of a
// concatenation width columns wide. lvl == nil means every edge reads
// block 0 and its column is idx[e] (off is then unused). It returns an
// error unless every column lies in [0, width) and each run's columns
// ascend strictly, which holds when each row's columns do.
func NewCSR(ptr, lvl, idx []int, w []float64, off []int, width int) (*CSR, error) {
	if len(ptr) == 0 || ptr[0] != 0 {
		return nil, fmt.Errorf("tensor: NewCSR malformed row pointers")
	}
	rows := len(ptr) - 1
	ne := ptr[rows]
	if len(idx) != ne || len(w) != ne || (lvl != nil && len(lvl) != ne) {
		return nil, fmt.Errorf("tensor: NewCSR edge arrays disagree with %d edges", ne)
	}
	c := &CSR{Rows: rows, Seg: make([]int, 4*rows+1), Idx: make([]int, ne), W: make([]float64, ne)}
	if lvl != nil && ne > 0 {
		c.Level = lvl[0]
		for _, v := range lvl {
			if v != c.Level {
				c.Lvl = make([]int, ne)
				break
			}
		}
	}
	cut := width &^ 3
	column := func(e int) int {
		if lvl == nil {
			return idx[e]
		}
		return off[lvl[e]] + idx[e]
	}
	run := func(col int) int {
		if col < cut {
			return col & 3
		}
		return 0
	}
	for r := 0; r < rows; r++ {
		lo, hi := ptr[r], ptr[r+1]
		if lo > hi || hi > ne {
			return nil, fmt.Errorf("tensor: NewCSR row %d has malformed pointers", r)
		}
		var next [4]int // next free slot of each run
		for e := lo; e < hi; e++ {
			col := column(e)
			if col < 0 || col >= width {
				return nil, fmt.Errorf("tensor: NewCSR row %d column %d outside [0, %d)", r, col, width)
			}
			next[run(col)]++
		}
		next[0], next[1], next[2], next[3] = lo, lo+next[0], lo+next[0]+next[1], hi-next[3]
		copy(c.Seg[4*r:], next[:])
		last := [4]int{-1, -1, -1, -1}
		for e := lo; e < hi; e++ {
			col := column(e)
			a := run(col)
			if col <= last[a] {
				return nil, fmt.Errorf("tensor: NewCSR row %d run %d columns do not ascend", r, a)
			}
			last[a] = col
			p := next[a]
			next[a]++
			c.Idx[p], c.W[p] = idx[e], w[e]
			if c.Lvl != nil {
				c.Lvl[p] = lvl[e]
			}
		}
	}
	c.Seg[4*rows] = ne
	return c, nil
}

// RowFlat returns row r's sum over x, the source block of a
// single-block view, without bias.
func (c *CSR) RowFlat(r int, x []float64) float64 {
	seg := c.Seg[4*r : 4*r+5]
	base, end := seg[0], seg[4]
	idx, ws := c.Idx[base:end], c.W[base:end]
	var s [4]float64
	for a := range s {
		var t float64
		for e := seg[a] - base; e < seg[a+1]-base; e++ {
			t += ws[e] * x[idx[e]]
		}
		s[a] = t
	}
	return s[0] + s[1] + s[2] + s[3]
}

// Row returns row r's sum over srcs, where srcs[v] holds source block
// v, without bias.
func (c *CSR) Row(r int, srcs [][]float64) float64 {
	if c.Lvl == nil {
		return c.RowFlat(r, srcs[c.Level])
	}
	seg := c.Seg[4*r : 4*r+5]
	base, end := seg[0], seg[4]
	lvl, idx, ws := c.Lvl[base:end], c.Idx[base:end], c.W[base:end]
	var s [4]float64
	for a := range s {
		var t float64
		for e := seg[a] - base; e < seg[a+1]-base; e++ {
			t += ws[e] * srcs[lvl[e]][idx[e]]
		}
		s[a] = t
	}
	return s[0] + s[1] + s[2] + s[3]
}

// rowFlat4 is RowFlat for four lanes at once: each run's indices and
// weights are loaded once and applied to all four sources, one live
// accumulator per lane.
func (c *CSR) rowFlat4(r int, x0, x1, x2, x3 []float64) (y0, y1, y2, y3 float64) {
	seg := c.Seg[4*r : 4*r+5]
	base, end := seg[0], seg[4]
	idx, ws := c.Idx[base:end], c.W[base:end]
	var s [4][4]float64 // s[a][j]: accumulator a of lane j
	for a := range s {
		var t0, t1, t2, t3 float64
		for e := seg[a] - base; e < seg[a+1]-base; e++ {
			w, j := ws[e], idx[e]
			t0 += w * x0[j]
			t1 += w * x1[j]
			t2 += w * x2[j]
			t3 += w * x3[j]
		}
		s[a] = [4]float64{t0, t1, t2, t3}
	}
	return s[0][0] + s[1][0] + s[2][0] + s[3][0],
		s[0][1] + s[1][1] + s[2][1] + s[3][1],
		s[0][2] + s[1][2] + s[2][2] + s[3][2],
		s[0][3] + s[1][3] + s[2][3] + s[3][3]
}

// row4 is Row for four lanes at once over a multi-block view.
func (c *CSR) row4(r int, s0, s1, s2, s3 [][]float64) (y0, y1, y2, y3 float64) {
	seg := c.Seg[4*r : 4*r+5]
	base, end := seg[0], seg[4]
	lvl, idx, ws := c.Lvl[base:end], c.Idx[base:end], c.W[base:end]
	var s [4][4]float64 // s[a][j]: accumulator a of lane j
	for a := range s {
		var t0, t1, t2, t3 float64
		for e := seg[a] - base; e < seg[a+1]-base; e++ {
			w, v, j := ws[e], lvl[e], idx[e]
			t0 += w * s0[v][j]
			t1 += w * s1[v][j]
			t2 += w * s2[v][j]
			t3 += w * s3[v][j]
		}
		s[a] = [4]float64{t0, t1, t2, t3}
	}
	return s[0][0] + s[1][0] + s[2][0] + s[3][0],
		s[0][1] + s[1][1] + s[2][1] + s[3][1],
		s[0][2] + s[1][2] + s[2][2] + s[3][2],
		s[0][3] + s[1][3] + s[2][3] + s[3][3]
}

// csrParallelMin is the edges×lanes work floor past which the lanes
// gather distributes row ranges over goroutines — same order as the
// dense kernels' 1<<15 element threshold.
const csrParallelMin = 1 << 15

// GatherLanesAddTo computes, for every lane k,
//
//	ys[k][r] = Σ_e W[e]·srcs[k][Lvl[e]][Idx[e]]  (+ b[r])
//
// in one sweep over the edge list: each row's runs are loaded once per
// group of four lanes and applied to all four (leftover lanes go one at
// a time), and a single-block view reads srcs[k][Level] hoisted per
// group. Lane k is bit-identical to Row(r, srcs[k]) (+ b[r]). b may be
// nil. Outputs must not alias any source.
func (c *CSR) GatherLanesAddTo(ys [][]float64, srcs [][][]float64, b []float64) {
	if len(ys) != len(srcs) {
		panic(fmt.Sprintf("tensor: GatherLanesAddTo %d outputs for %d lanes", len(ys), len(srcs)))
	}
	c.checkLanes("GatherLanesAddTo", ys, b)
	if len(srcs) == 0 {
		return
	}
	if len(c.W)*len(srcs) >= csrParallelMin {
		d := mvPool.Get().(*mvDispatch)
		d.kind, d.csr, d.ys, d.srcs, d.b = mvCSRLanes, c, ys, srcs, b
		parallel.ForChunked(c.Rows, 16, d.run)
		d.release()
		return
	}
	c.gatherLanesRange(ys, srcs, b, 0, c.Rows)
}

// GatherLanesFlatAddTo is GatherLanesAddTo for a single-block view with
// each lane's block passed directly: ys[k][r] = RowFlat(r, xs[k])
// (+ b[r]). This is the prev-level-only fast path, the sparse analogue
// of MulVecLanesAddTo.
func (c *CSR) GatherLanesFlatAddTo(ys, xs [][]float64, b []float64) {
	if len(ys) != len(xs) {
		panic(fmt.Sprintf("tensor: GatherLanesFlatAddTo %d outputs for %d lanes", len(ys), len(xs)))
	}
	if c.Lvl != nil {
		panic("tensor: GatherLanesFlatAddTo on a multi-block view")
	}
	c.checkLanes("GatherLanesFlatAddTo", ys, b)
	if len(xs) == 0 {
		return
	}
	if len(c.W)*len(xs) >= csrParallelMin {
		d := mvPool.Get().(*mvDispatch)
		d.kind, d.csr, d.ys, d.xs, d.b = mvCSRFlatLanes, c, ys, xs, b
		parallel.ForChunked(c.Rows, 16, d.run)
		d.release()
		return
	}
	c.gatherLanesFlatRange(ys, xs, b, 0, c.Rows)
}

// checkLanes panics unless every lane output and b (when set) hold Rows
// entries.
func (c *CSR) checkLanes(op string, ys [][]float64, b []float64) {
	for k := range ys {
		if len(ys[k]) != c.Rows {
			panic(fmt.Sprintf("tensor: %s lane %d output length %d, want %d", op, k, len(ys[k]), c.Rows))
		}
	}
	if b != nil && len(b) != c.Rows {
		panic(fmt.Sprintf("tensor: %s bias length mismatch", op))
	}
}

// gatherLanesRange is the serial core of GatherLanesAddTo over rows
// lo..hi: rows outer, lane groups inner, so a row's runs stay in L1
// across its groups.
func (c *CSR) gatherLanesRange(ys [][]float64, srcs [][][]float64, b []float64, lo, hi int) {
	v := c.Level
	for r := lo; r < hi; r++ {
		k := 0
		if c.Lvl == nil {
			for ; k+4 <= len(ys); k += 4 {
				ys[k][r], ys[k+1][r], ys[k+2][r], ys[k+3][r] = c.rowFlat4(r, srcs[k][v], srcs[k+1][v], srcs[k+2][v], srcs[k+3][v])
			}
		} else {
			for ; k+4 <= len(ys); k += 4 {
				ys[k][r], ys[k+1][r], ys[k+2][r], ys[k+3][r] = c.row4(r, srcs[k], srcs[k+1], srcs[k+2], srcs[k+3])
			}
		}
		for ; k < len(ys); k++ {
			ys[k][r] = c.Row(r, srcs[k])
		}
		addBias(ys, b, r)
	}
}

// gatherLanesFlatRange is the serial core of GatherLanesFlatAddTo.
func (c *CSR) gatherLanesFlatRange(ys, xs [][]float64, b []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		k := 0
		for ; k+4 <= len(ys); k += 4 {
			ys[k][r], ys[k+1][r], ys[k+2][r], ys[k+3][r] = c.rowFlat4(r, xs[k], xs[k+1], xs[k+2], xs[k+3])
		}
		for ; k < len(ys); k++ {
			ys[k][r] = c.RowFlat(r, xs[k])
		}
		addBias(ys, b, r)
	}
}

func addBias(ys [][]float64, b []float64, r int) {
	if b != nil {
		for k := range ys {
			ys[k][r] += b[r]
		}
	}
}
