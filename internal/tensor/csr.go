package tensor

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
)

// CSR is a compressed-sparse-row gather view over a virtual column
// concatenation of source blocks, stored padded and interleaved so that
// every kernel is one loop of four independent multiply-adds with no
// data-dependent branch.
//
// Dot over a concatenation n columns wide adds column i into
// accumulator i&3 when i < n&^3 and the tail columns into accumulator
// 0, each accumulator in ascending column order. NewCSR sends every
// edge to its accumulator's run, keeping column order inside a run (tail
// edges land last in run 0 because columns ascend), pads the four runs
// of a row with zero-weight slots to the row's longest run, and stores
// them interleaved: slot 4k+a of a row is edge k of run a. Row r owns
// slots Ptr[r]..Ptr[r+1], a multiple of four; slot s reads value Idx[s]
// of source block Lvl[s] with weight W[s]. When every edge reads one
// block, Lvl is nil and Level names that block.
//
// Each kernel adds slot 4k+a into accumulator a, so accumulator a sees
// exactly Dot's nonzero terms for its columns, in Dot's order, with
// zero terms in between: the absent edges of the dense row and the pad
// slots. A zero weight times a finite source is ±0, and adding ±0 to an
// accumulator leaves it unchanged unless it is -0, which it never is:
// it starts at +0 and a sum is -0 only when both addends are. So every
// kernel below is bitwise Dot(denseRow, concatenation), with the bias
// added after the reduction. A pad slot reads a real source of its row,
// so no index is out of range. (As for Dot's own absent edges, the
// argument needs finite sources: a pad reading an infinite one adds
// NaN.)
type CSR struct {
	Rows  int
	Ptr   []int32 // Rows+1 slot offsets, each a multiple of 4
	Lvl   []int32 // per-slot source block; nil for single-block views
	Level int     // the source block of a single-block view
	Idx   []int32
	W     []float64
	// col is each slot's column in the concatenation on a multi-block
	// view (a single-block view's columns are Idx); blocks lists the
	// blocks the view reads with their columns and spans. Together they
	// address the lane-interleaved sources of csrGather4.
	col    []int32
	blocks []csrBlock
}

// csrBlock is one source block of a view: block v, which starts at
// column off of the concatenation, and span, one more than the largest
// index of it that the view reads — a lane's block must hold span
// values.
type csrBlock struct{ v, off, span int }

// NewCSR builds the padded interleaved view of row-sorted edges: row r
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
	if width > math.MaxInt32 {
		return nil, fmt.Errorf("tensor: NewCSR width %d past int32", width)
	}
	c := &CSR{Rows: rows, Ptr: make([]int32, rows+1)}
	if lvl != nil && ne > 0 {
		c.Level = lvl[0]
		for _, v := range lvl {
			if v != c.Level {
				c.Lvl = []int32{}
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
		var n [4]int // each run's length
		last := [4]int{-1, -1, -1, -1}
		for e := lo; e < hi; e++ {
			col := column(e)
			if col < 0 || col >= width {
				return nil, fmt.Errorf("tensor: NewCSR row %d column %d outside [0, %d)", r, col, width)
			}
			a := run(col)
			if col <= last[a] {
				return nil, fmt.Errorf("tensor: NewCSR row %d run %d columns do not ascend", r, a)
			}
			last[a] = col
			n[a]++
		}
		base := len(c.W)
		slots := 4 * max(n[0], n[1], n[2], n[3])
		if base+slots > math.MaxInt32 {
			return nil, fmt.Errorf("tensor: NewCSR past %d slots", math.MaxInt32)
		}
		c.Ptr[r+1] = int32(base + slots)
		if slots == 0 {
			continue
		}
		// Pads read the row's first edge with weight +0.
		for s := 0; s < slots; s++ {
			c.Idx = append(c.Idx, int32(idx[lo]))
			c.W = append(c.W, 0)
			if c.Lvl != nil {
				c.Lvl = append(c.Lvl, int32(lvl[lo]))
				c.col = append(c.col, int32(column(lo)))
			}
		}
		var k [4]int // next edge of each run
		for e := lo; e < hi; e++ {
			col := column(e)
			a := run(col)
			s := base + 4*k[a] + a
			k[a]++
			c.Idx[s], c.W[s] = int32(idx[e]), w[e]
			if c.Lvl != nil {
				c.Lvl[s], c.col[s] = int32(lvl[e]), int32(col)
			}
		}
	}
	c.indexBlocks(lvl, idx, off)
	return c, nil
}

// indexBlocks lists the blocks the view's edges read, each with its
// span; a single-block view's one block starts at column 0, since its
// slots address it by Idx.
func (c *CSR) indexBlocks(lvl, idx, off []int) {
	var span []int // span[v] of every block v read
	for e, j := range idx {
		v := 0
		if lvl != nil {
			v = lvl[e]
		}
		if v >= len(span) {
			span = append(span, make([]int, v+1-len(span))...)
		}
		span[v] = max(span[v], j+1)
	}
	for v, n := range span {
		if n == 0 {
			continue
		}
		b := csrBlock{v: v, span: n}
		if c.Lvl != nil {
			b.off = off[v]
		}
		c.blocks = append(c.blocks, b)
	}
}

// slots returns row r's slot range.
func (c *CSR) slots(r int) (lo, hi int) { return int(c.Ptr[r]), int(c.Ptr[r+1]) }

// RowFlat returns row r's sum over x, the source block of a
// single-block view, without bias.
func (c *CSR) RowFlat(r int, x []float64) float64 {
	lo, hi := c.slots(r)
	idx, ws := c.Idx[lo:hi], c.W[lo:hi]
	var s0, s1, s2, s3 float64
	for len(idx) >= 4 && len(ws) >= 4 {
		s0 += ws[0] * x[idx[0]]
		s1 += ws[1] * x[idx[1]]
		s2 += ws[2] * x[idx[2]]
		s3 += ws[3] * x[idx[3]]
		idx, ws = idx[4:], ws[4:]
	}
	return s0 + s1 + s2 + s3
}

// Row returns row r's sum over srcs, where srcs[v] holds source block
// v, without bias.
func (c *CSR) Row(r int, srcs [][]float64) float64 {
	if c.Lvl == nil {
		return c.RowFlat(r, srcs[c.Level])
	}
	lo, hi := c.slots(r)
	lvl, idx, ws := c.Lvl[lo:hi], c.Idx[lo:hi], c.W[lo:hi]
	var s0, s1, s2, s3 float64
	for len(lvl) >= 4 && len(idx) >= 4 && len(ws) >= 4 {
		s0 += ws[0] * srcs[lvl[0]][idx[0]]
		s1 += ws[1] * srcs[lvl[1]][idx[1]]
		s2 += ws[2] * srcs[lvl[2]][idx[2]]
		s3 += ws[3] * srcs[lvl[3]][idx[3]]
		lvl, idx, ws = lvl[4:], idx[4:], ws[4:]
	}
	return s0 + s1 + s2 + s3
}

// rowFlat4 is RowFlat for four lanes at once: each slot's index and
// weight are loaded once and applied to all four sources.
func (c *CSR) rowFlat4(r int, x0, x1, x2, x3 []float64) (y0, y1, y2, y3 float64) {
	lo, hi := c.slots(r)
	idx, ws := c.Idx[lo:hi], c.W[lo:hi]
	var a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 float64 // accumulator a..d of lane 0..3
	for len(idx) >= 4 && len(ws) >= 4 {
		w, j := ws[0], idx[0]
		a0 += w * x0[j]
		a1 += w * x1[j]
		a2 += w * x2[j]
		a3 += w * x3[j]
		w, j = ws[1], idx[1]
		b0 += w * x0[j]
		b1 += w * x1[j]
		b2 += w * x2[j]
		b3 += w * x3[j]
		w, j = ws[2], idx[2]
		c0 += w * x0[j]
		c1 += w * x1[j]
		c2 += w * x2[j]
		c3 += w * x3[j]
		w, j = ws[3], idx[3]
		d0 += w * x0[j]
		d1 += w * x1[j]
		d2 += w * x2[j]
		d3 += w * x3[j]
		idx, ws = idx[4:], ws[4:]
	}
	return a0 + b0 + c0 + d0, a1 + b1 + c1 + d1, a2 + b2 + c2 + d2, a3 + b3 + c3 + d3
}

// row4 is Row for four lanes at once over a multi-block view.
func (c *CSR) row4(r int, s0, s1, s2, s3 [][]float64) (y0, y1, y2, y3 float64) {
	lo, hi := c.slots(r)
	lvl, idx, ws := c.Lvl[lo:hi], c.Idx[lo:hi], c.W[lo:hi]
	var a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 float64 // accumulator a..d of lane 0..3
	for len(lvl) >= 4 && len(idx) >= 4 && len(ws) >= 4 {
		w, v, j := ws[0], lvl[0], idx[0]
		a0 += w * s0[v][j]
		a1 += w * s1[v][j]
		a2 += w * s2[v][j]
		a3 += w * s3[v][j]
		w, v, j = ws[1], lvl[1], idx[1]
		b0 += w * s0[v][j]
		b1 += w * s1[v][j]
		b2 += w * s2[v][j]
		b3 += w * s3[v][j]
		w, v, j = ws[2], lvl[2], idx[2]
		c0 += w * s0[v][j]
		c1 += w * s1[v][j]
		c2 += w * s2[v][j]
		c3 += w * s3[v][j]
		w, v, j = ws[3], lvl[3], idx[3]
		d0 += w * s0[v][j]
		d1 += w * s1[v][j]
		d2 += w * s2[v][j]
		d3 += w * s3[v][j]
		lvl, idx, ws = lvl[4:], idx[4:], ws[4:]
	}
	return a0 + b0 + c0 + d0, a1 + b1 + c1 + d1, a2 + b2 + c2 + d2, a3 + b3 + c3 + d3
}

// csrParallelMin is the slots×lanes work floor past which the lanes
// gather distributes row ranges over goroutines — same order as the
// dense kernels' 1<<15 element threshold. csrGather4 does a slot-lane
// several times faster than the Go kernels, so its floor is 16 times
// higher: on a 2-vCPU Xeon the split lost up to ~400k slot-lanes and
// won from ~800k (BenchmarkCSRGatherLanes-sized views).
const csrParallelMin = 1 << 15

// GatherLanesAddTo computes, for every lane k,
//
//	ys[k][r] = Σ_s W[s]·srcs[k][Lvl[s]][Idx[s]]  (+ b[r])
//
// in one sweep over the slots per group of four lanes: each slot's
// index and weight are loaded once and applied to all four lanes
// (leftover lanes go one at a time). With AVX2, each group's sources
// are first interleaved into one pooled buffer, so a slot reads its
// four lanes' values with one vector load (csrGather4). Lane k is
// bit-identical to Row(r, srcs[k]) (+ b[r]). b may be nil. Outputs must
// not alias any source.
func (c *CSR) GatherLanesAddTo(ys [][]float64, srcs [][][]float64, b []float64) {
	if len(ys) != len(srcs) {
		panic(fmt.Sprintf("tensor: GatherLanesAddTo %d outputs for %d lanes", len(ys), len(srcs)))
	}
	c.checkLanes("GatherLanesAddTo", ys, b)
	if len(srcs) == 0 {
		return
	}
	var xt []float64
	if hasAVX2 && len(srcs) >= 4 && len(c.W) > 0 {
		buf := c.interleave(srcs)
		defer interleavePool.Put(buf)
		xt = *buf
	}
	work := len(c.W) * len(srcs)
	if xt != nil {
		work >>= 4
	}
	if work >= csrParallelMin {
		d := mvPool.Get().(*mvDispatch)
		d.kind, d.csr, d.ys, d.srcs, d.xt, d.b = mvCSRLanes, c, ys, srcs, xt, b
		parallel.ForChunked(c.Rows, 16, d.run)
		d.release()
		return
	}
	c.gatherLanesRange(ys, srcs, xt, b, 0, c.Rows)
}

// interleavePool recycles GatherLanesAddTo's interleaved sources.
var interleavePool = sync.Pool{New: func() any { return new([]float64) }}

// interleave lays out the sources of each whole group of four lanes
// for csrGather4: in group g, lane k's value j of a block starting at
// column off sits at 4·(xw·g + off + j) + k, where xw is xwidth(). It
// panics, as the kernels' bounds checks would, when a lane's block is
// shorter than its span.
func (c *CSR) interleave(srcs [][][]float64) *[]float64 {
	buf := interleavePool.Get().(*[]float64)
	xw := c.xwidth()
	n := (len(srcs) &^ 3) * xw
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	xt := (*buf)[:n]
	for k := 0; k+4 <= len(srcs); k += 4 {
		for _, b := range c.blocks {
			g := xt[k*xw+4*b.off : k*xw+4*(b.off+b.span)]
			x0, x1, x2, x3 := srcs[k][b.v][:b.span], srcs[k+1][b.v][:b.span], srcs[k+2][b.v][:b.span], srcs[k+3][b.v][:b.span]
			for j := range x0 {
				t := g[4*j : 4*j+4 : 4*j+4]
				t[0], t[1], t[2], t[3] = x0[j], x1[j], x2[j], x3[j]
			}
		}
	}
	*buf = xt
	return buf
}

// xwidth is the number of columns one lane occupies in the interleaved
// sources: up to the last column any slot reads.
func (c *CSR) xwidth() int {
	w := 0
	for _, b := range c.blocks {
		w = max(w, b.off+b.span)
	}
	return w
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
// lo..hi. Groups whose sources xt interleaves run csrGather4 over the
// whole range; the other lanes go through rowsLanes.
func (c *CSR) gatherLanesRange(ys [][]float64, srcs [][][]float64, xt, b []float64, lo, hi int) {
	if lo == hi {
		return
	}
	if xt != nil {
		var bp *float64
		if b != nil {
			bp = &b[lo]
		}
		cols := c.cols()
		xw := c.xwidth()
		k := 0
		for ; k+4 <= len(ys); k += 4 {
			out := [4]*float64{&ys[k][lo], &ys[k+1][lo], &ys[k+2][lo], &ys[k+3][lo]}
			csrGather4(&c.Ptr[lo], hi-lo, &cols[0], &c.W[0], &xt[k*xw], &out, bp)
		}
		ys, srcs = ys[k:], srcs[k:]
	}
	c.rowsLanes(ys, srcs, b, nil, lo, hi)
}

// RowsLanesAddTo computes, for every listed row r and every lane k,
//
//	ys[k][r] = Row(r, srcs[k]) (+ b[r])
//
// bitwise, and leaves the other entries of ys untouched: the row-list
// form of GatherLanesAddTo. Four lanes go through a row's slots per
// pass. With AVX2 and at least four lanes, when the listed rows hold at
// least as many slots as a lane's interleaved sources are wide, each
// whole group of four lanes is interleaved once and every listed row
// runs csrGather4; on shorter lists the interleave costs more than it
// saves. b may be nil. Outputs must not alias any source.
func (c *CSR) RowsLanesAddTo(ys [][]float64, srcs [][][]float64, rows []int, b []float64) {
	if len(ys) != len(srcs) {
		panic(fmt.Sprintf("tensor: RowsLanesAddTo %d outputs for %d lanes", len(ys), len(srcs)))
	}
	c.checkLanes("RowsLanesAddTo", ys, b)
	if len(ys) == 0 || len(rows) == 0 {
		return
	}
	if hasAVX2 && len(ys) >= 4 && len(c.W) > 0 {
		if xw := c.xwidth(); c.listedSlots(rows) >= xw {
			buf := c.interleave(srcs)
			xt, cols := *buf, c.cols()
			k := 0
			for ; k+4 <= len(ys); k += 4 {
				x := &xt[k*xw]
				for _, r := range rows {
					out := [4]*float64{&ys[k][r], &ys[k+1][r], &ys[k+2][r], &ys[k+3][r]}
					var bp *float64
					if b != nil {
						bp = &b[r]
					}
					csrGather4(&c.Ptr[r], 1, &cols[0], &c.W[0], x, &out, bp)
				}
			}
			interleavePool.Put(buf)
			ys, srcs = ys[k:], srcs[k:]
		}
	}
	c.rowsLanes(ys, srcs, b, rows, 0, len(rows))
}

// listedSlots returns the number of slots the listed rows own.
func (c *CSR) listedSlots(rows []int) int {
	n := 0
	for _, r := range rows {
		n += int(c.Ptr[r+1] - c.Ptr[r])
	}
	return n
}

// cols returns each slot's column in the concatenation, the addresses
// csrGather4 reads the interleaved sources at.
func (c *CSR) cols() []int32 {
	if c.Lvl != nil {
		return c.col
	}
	return c.Idx
}

// rowsLanes is the Go kernels' lane loop: it sets ys[k][r] to
// Row(r, srcs[k]) (+ b[r]) for every lane k and every row r =
// rows[i], i in lo..hi, or r = i when rows is nil. Whole groups of four
// lanes go rows outer, each row's slots loaded once for the group
// (rowFlat4/row4); the leftover lanes then go one at a time over the
// rows, so the single-lane row path is one tight loop.
func (c *CSR) rowsLanes(ys [][]float64, srcs [][][]float64, b []float64, rows []int, lo, hi int) {
	v, flat := c.Level, c.Lvl == nil
	n4 := len(ys) &^ 3
	for i := lo; i < hi && n4 > 0; i++ {
		r := i
		if rows != nil {
			r = rows[i]
		}
		for k := 0; k < n4; k += 4 {
			var y0, y1, y2, y3 float64
			if flat {
				y0, y1, y2, y3 = c.rowFlat4(r, srcs[k][v], srcs[k+1][v], srcs[k+2][v], srcs[k+3][v])
			} else {
				y0, y1, y2, y3 = c.row4(r, srcs[k], srcs[k+1], srcs[k+2], srcs[k+3])
			}
			if b != nil {
				y0, y1, y2, y3 = y0+b[r], y1+b[r], y2+b[r], y3+b[r]
			}
			ys[k][r], ys[k+1][r], ys[k+2][r], ys[k+3][r] = y0, y1, y2, y3
		}
	}
	for k := n4; k < len(ys); k++ {
		y, src := ys[k], srcs[k]
		for i := lo; i < hi; i++ {
			r := i
			if rows != nil {
				r = rows[i]
			}
			var s float64
			if flat {
				s = c.RowFlat(r, src[v])
			} else {
				s = c.Row(r, src)
			}
			if b != nil {
				s += b[r]
			}
			y[r] = s
		}
	}
}
