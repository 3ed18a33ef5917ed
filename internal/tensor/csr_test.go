package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// csrCase is a random accumulator-split view with its dense twin:
// dense[r] is row r over the concatenation of the source blocks the
// view reads (blocks, ascending; block v starts at off[v]).
type csrCase struct {
	c      *CSR
	flat   *CSR // single-block cases only: the same rows built with lvl == nil
	dense  [][]float64
	widths []int // every block's width, indexed by block
	blocks []int
	off    []int
}

// randomCSR draws rows over blocks of the given widths. Rows cycle
// through the shapes a kernel can get wrong: random, empty, tail-only
// (columns >= width&^3), one nonempty run, full, and all -0 weights.
func randomCSR(t testing.TB, r *rng.Rand, widths, blocks []int, rows int, density float64) csrCase {
	t.Helper()
	cc := csrCase{widths: widths, blocks: blocks, off: make([]int, len(widths))}
	width := 0
	for _, v := range blocks {
		cc.off[v] = width
		width += widths[v]
	}
	cut := width &^ 3
	ptr := []int{0}
	var lvl, idx []int
	var w []float64
	for row := 0; row < rows; row++ {
		d := make([]float64, width)
		kind := row % 6
		for col := 0; col < width; col++ {
			var keep bool
			switch kind {
			case 0, 5:
				keep = r.Bool(density)
			case 2:
				keep = col >= cut
			case 3:
				keep = col < cut && col&3 == 2
			case 4:
				keep = true
			}
			if !keep {
				continue
			}
			wt := r.Range(-1.5, 1.5)
			if kind == 5 || r.Bool(0.125) {
				wt = math.Copysign(0, -1)
			}
			d[col] = wt
			v := len(blocks) - 1
			for cc.off[blocks[v]] > col {
				v--
			}
			lvl = append(lvl, blocks[v])
			idx = append(idx, col-cc.off[blocks[v]])
			w = append(w, wt)
		}
		cc.dense = append(cc.dense, d)
		ptr = append(ptr, len(w))
	}
	var err error
	if cc.c, err = NewCSR(ptr, lvl, idx, w, cc.off, width); err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 1 {
		if cc.flat, err = NewCSR(ptr, nil, idx, w, nil, width); err != nil {
			t.Fatal(err)
		}
	}
	return cc
}

// sources draws one lane's block values, with exact +0 (crashed)
// entries mixed in.
func (cc *csrCase) sources(r *rng.Rand) [][]float64 {
	src := make([][]float64, len(cc.widths))
	for v, n := range cc.widths {
		src[v] = make([]float64, n)
		r.Floats(src[v], -2, 2)
		for i := range src[v] {
			if r.Bool(1.0 / 6) {
				src[v][i] = 0
			}
		}
	}
	return src
}

// concat lays one lane's sources out as the view's dense twin reads them.
func (cc *csrCase) concat(src [][]float64) []float64 {
	var x []float64
	for _, v := range cc.blocks {
		x = append(x, src[v]...)
	}
	return x
}

// csrShapes cover one to three source blocks with concatenation widths
// of every residue mod 4, single-block views reading a block other than
// 0, and two shapes past csrParallelMin (edges x lanes).
var csrShapes = []struct {
	widths, blocks []int
	rows           int
	density        float64
}{
	{[]int{8}, []int{0}, 13, 0.4},
	{[]int{9}, []int{0}, 13, 0.4},
	{[]int{6}, []int{0}, 13, 0.4},
	{[]int{7, 3}, []int{1}, 13, 0.6},
	{[]int{3, 5}, []int{0, 1}, 13, 0.4},
	{[]int{2, 4, 7}, []int{0, 1, 2}, 13, 0.3},
	{[]int{3, 4, 3}, []int{0, 1, 2}, 13, 0.3},
	{[]int{5, 9, 6}, []int{0, 2}, 13, 0.3},
	{[]int{1030}, []int{0}, 300, 0.04},
	{[]int{300, 260, 301}, []int{0, 1, 2}, 512, 0.05},
}

// TestCSRGatherMatchesDot pins every CSR kernel to the dense kernel it
// replays: lane k of GatherLanesAddTo and GatherLanesFlatAddTo, and the
// single-lane Row and RowFlat, must equal tensor.Dot of the dense row
// and the lane's concatenated sources (+bias) bit for bit, for lane
// counts around the four-lane grouping and distinct or aliased sources.
func TestCSRGatherMatchesDot(t *testing.T) {
	r := rng.New(13)
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	for _, sh := range csrShapes {
		cc := randomCSR(t, r, sh.widths, sh.blocks, sh.rows, sh.density)
		if single := len(sh.blocks) == 1; single != (cc.c.Lvl == nil) || (single && cc.c.Level != sh.blocks[0]) {
			t.Fatalf("%v/%v: Lvl nil=%v Level=%d", sh.widths, sh.blocks, cc.c.Lvl == nil, cc.c.Level)
		}
		bias := make([]float64, sh.rows)
		r.Floats(bias, -1, 1)
		distinct := make([][][]float64, 9)
		for k := range distinct {
			distinct[k] = cc.sources(r)
		}
		for lanes := 1; lanes <= 9; lanes++ {
			aliased := make([][][]float64, lanes)
			for k := range aliased {
				aliased[k] = distinct[k%3]
			}
			for _, srcs := range [][][][]float64{distinct[:lanes], aliased} {
				want := make([][]float64, lanes)
				xs := make([][]float64, lanes)
				for k := range srcs {
					x := cc.concat(srcs[k])
					for _, d := range cc.dense {
						want[k] = append(want[k], Dot(d, x))
					}
					xs[k] = srcs[k][sh.blocks[0]]
				}
				for _, b := range [][]float64{bias, nil} {
					check := func(kernel string, ys [][]float64) {
						t.Helper()
						for k := range ys {
							for row, got := range ys[k] {
								w := want[k][row]
								if b != nil {
									w += b[row]
								}
								if !same(got, w) {
									t.Fatalf("%v/%v lanes=%d nil-bias=%v %s lane %d row %d: %v != Dot %v",
										sh.widths, sh.blocks, lanes, b == nil, kernel, k, row, got, w)
								}
							}
						}
					}
					ys := make([][]float64, lanes)
					for k := range ys {
						ys[k] = make([]float64, sh.rows)
					}
					cc.c.GatherLanesAddTo(ys, srcs, b)
					check("GatherLanesAddTo", ys)
					if cc.flat == nil {
						continue
					}
					for _, v := range []*CSR{cc.c, cc.flat} {
						v.GatherLanesFlatAddTo(ys, xs, b)
						check("GatherLanesFlatAddTo", ys)
					}
				}
				for k := range srcs {
					for row := 0; row < sh.rows; row++ {
						if got := cc.c.Row(row, srcs[k]); !same(got, want[k][row]) {
							t.Fatalf("%v/%v Row lane %d row %d: %v != Dot %v", sh.widths, sh.blocks, k, row, got, want[k][row])
						}
						if cc.flat == nil {
							continue
						}
						for _, v := range []*CSR{cc.c, cc.flat} {
							if got := v.RowFlat(row, xs[k]); !same(got, want[k][row]) {
								t.Fatalf("%v/%v RowFlat lane %d row %d: %v != Dot %v", sh.widths, sh.blocks, k, row, got, want[k][row])
							}
						}
					}
				}
			}
		}
	}
}

// TestNewCSRRejects covers the constructor's checks: a run whose
// columns do not ascend and a column outside the concatenation.
func TestNewCSRRejects(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ptr, idx []int
		width    int
	}{
		{"descending run", []int{0, 2}, []int{4, 0}, 8},
		{"repeated column", []int{0, 2}, []int{1, 1}, 8},
		{"column past width", []int{0, 1}, []int{8}, 8},
		{"short edge arrays", []int{0, 3}, []int{0, 1}, 8},
	} {
		if _, err := NewCSR(tc.ptr, nil, tc.idx, make([]float64, len(tc.idx)), nil, tc.width); err == nil {
			t.Errorf("%s: NewCSR accepted it", tc.name)
		}
	}
	// Order across runs is free: each accumulator sees only its own
	// run, so columns 5 then 0 (runs 1 and 0) still replay Dot.
	if _, err := NewCSR([]int{0, 2}, nil, []int{5, 0}, make([]float64, 2), nil, 8); err != nil {
		t.Errorf("cross-run order rejected: %v", err)
	}
}
