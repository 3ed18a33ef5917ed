package tensor

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// csrCase is a random padded view with its dense twin:
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
// (columns >= width&^3), one nonempty run, full, all -0 weights, a
// single edge, and very unequal runs (run 0 full, run 3 one edge), so
// pads fill whole runs, part of runs, and none.
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
		kind := row % 8
		single, lone := r.Intn(width), cut-1 // kind 6's edge, kind 7's run-3 edge
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
			case 6:
				keep = col == single
			case 7:
				keep = col < cut && col&3 == 0 || col == lone
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
// 0, and two shapes past the parallel floor of either lane kernel
// (slots x lanes) from five lanes up.
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
// replays: lane k of GatherLanesAddTo (the interleaved AVX2 kernel
// where the CPU has it) and of the portable Go lane kernels, and the
// single-lane Row and RowFlat, must equal tensor.Dot of the dense row
// and the lane's concatenated sources (+bias) bit for bit, for lane
// counts 1-9 around the four-lane grouping and distinct or aliased
// sources.
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
					// The portable Go kernels, which GatherLanesAddTo
					// runs only without AVX2.
					for k := range ys {
						clear(ys[k])
					}
					cc.c.gatherLanesRange(ys, srcs, nil, b, 0, sh.rows)
					check("Go lane kernels", ys)
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

// TestCSRRowsLanesMatchesRow pins the row-list lane kernel to the
// single-lane Row plus bias, bit for bit: for lane counts 1-9, on
// single- and multi-block views, over empty, single-row, random and
// full row lists, with and without a bias, and with the AVX2 kernel
// switched off once so the Go path runs too. Rows off the list must
// keep their previous bits.
func TestCSRRowsLanesMatchesRow(t *testing.T) {
	r := rng.New(19)
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	avx2 := hasAVX2
	defer func() { hasAVX2 = avx2 }()
	for _, sh := range csrShapes {
		cc := randomCSR(t, r, sh.widths, sh.blocks, sh.rows, sh.density)
		bias := make([]float64, sh.rows)
		r.Floats(bias, -1, 1)
		srcs := make([][][]float64, 9)
		for k := range srcs {
			srcs[k] = cc.sources(r)
		}
		full := make([]int, sh.rows)
		for row := range full {
			full[row] = row
		}
		random := r.Sample(sh.rows, sh.rows/3)
		sort.Ints(random)
		lists := map[string][]int{"empty": {}, "single": {sh.rows / 2}, "random": random, "full": full}
		for _, kernel := range []bool{avx2, false} {
			hasAVX2 = kernel
			for lanes := 1; lanes <= 9; lanes++ {
				for name, rows := range lists {
					for _, b := range [][]float64{bias, nil} {
						ys := make([][]float64, lanes)
						for k := range ys {
							ys[k] = make([]float64, sh.rows)
							for row := range ys[k] {
								ys[k][row] = sentinel
							}
						}
						cc.c.RowsLanesAddTo(ys, srcs[:lanes], rows, b)
						listed := make([]bool, sh.rows)
						for _, row := range rows {
							listed[row] = true
						}
						for k := range ys {
							for row, got := range ys[k] {
								want := sentinel
								if listed[row] {
									want = cc.c.Row(row, srcs[k])
									if b != nil {
										want += b[row]
									}
								}
								if !same(got, want) {
									t.Fatalf("%v/%v avx2=%v lanes=%d %s list nil-bias=%v lane %d row %d: %v, want %v",
										sh.widths, sh.blocks, kernel, lanes, name, b == nil, k, row, got, want)
								}
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

// TestCSRPaddedLayout pins the layout the kernels rely on: every row
// owns a multiple of four slots, slot 4k+a holds run a's k-th edge or a
// +0-weight pad, a row has no more slots than four times its longest
// run, every slot of a row reads one of the row's own sources, and a
// multi-block view's slot columns address the concatenation.
func TestCSRPaddedLayout(t *testing.T) {
	r := rng.New(17)
	for _, sh := range csrShapes {
		cc := randomCSR(t, r, sh.widths, sh.blocks, sh.rows, sh.density)
		c := cc.c
		cut := len(cc.dense[0]) &^ 3
		for row := 0; row < c.Rows; row++ {
			lo, hi := c.slots(row)
			if (hi-lo)%4 != 0 {
				t.Fatalf("%v row %d: %d slots", sh.widths, row, hi-lo)
			}
			var runs [4]int
			for col, w := range cc.dense[row] {
				if w != 0 || math.Signbit(w) {
					a := 0
					if col < cut {
						a = col & 3
					}
					runs[a]++
				}
			}
			if hi-lo != 4*max(runs[0], runs[1], runs[2], runs[3]) {
				t.Fatalf("%v row %d: %d slots for runs %v", sh.widths, row, hi-lo, runs)
			}
			for s := lo; s < hi; s++ {
				v := c.Level
				if c.Lvl != nil {
					v = int(c.Lvl[s])
				}
				col := cc.off[v] + int(c.Idx[s])
				if c.Lvl != nil && int(c.col[s]) != col {
					t.Fatalf("%v row %d slot %d: column %d, want %d", sh.widths, row, s, c.col[s], col)
				}
				if k, a := (s-lo)/4, (s-lo)%4; k >= runs[a] {
					if math.Float64bits(c.W[s]) != 0 {
						t.Fatalf("%v row %d slot %d: pad weight %v", sh.widths, row, s, c.W[s])
					}
				} else if math.Float64bits(c.W[s]) != math.Float64bits(cc.dense[row][col]) {
					t.Fatalf("%v row %d slot %d: weight %v, dense %v", sh.widths, row, s, c.W[s], cc.dense[row][col])
				}
				if d := cc.dense[row][col]; d == 0 && !math.Signbit(d) {
					t.Fatalf("%v row %d slot %d reads column %d, not an edge of the row", sh.widths, row, s, col)
				}
			}
		}
	}
}

// csrBytes is the memory a view streams: row pointers, indices,
// weights and per-slot blocks.
func csrBytes(c *CSR) int {
	return 4*len(c.Ptr) + 4*len(c.Idx) + 8*len(c.W) + 4*len(c.Lvl) + 4*len(c.col)
}

// benchCSRShapes are the views the kernel benchmarks run on: rows of
// perRow distinct random columns of the concatenation.
var benchCSRShapes = []struct {
	name         string
	widths       []int
	rows, perRow int
}{
	{"sparse1024", []int{1024}, 1024, 10}, // sparse1024's level: density 0.01
	{"skip64", []int{8, 64}, 64, 2},       // a 64-wide small-world level with skip edges
	{"skip64x4", []int{8, 64, 64}, 64, 4}, // the same with ~4-edge rows over three blocks
}

// benchCSR builds one benchCSRShapes view with 8 lanes of sources,
// returning the view, its row pointers over real edges and the sources.
func benchCSR(b *testing.B, r *rng.Rand, widths []int, rows, perRow int) (*CSR, []int, [][][]float64) {
	off := make([]int, len(widths))
	blocks := make([]int, len(widths))
	width := 0
	for v, w := range widths {
		off[v], blocks[v] = width, v
		width += w
	}
	ptr := []int{0}
	var lvl, idx []int
	var w []float64
	for row := 0; row < rows; row++ {
		cols := r.Sample(width, perRow)
		sort.Ints(cols)
		for _, col := range cols {
			v := len(off) - 1
			for off[v] > col {
				v--
			}
			lvl, idx, w = append(lvl, v), append(idx, col-off[v]), append(w, r.Range(-1, 1))
		}
		ptr = append(ptr, len(w))
	}
	if len(widths) == 1 {
		lvl = nil
	}
	c, err := NewCSR(ptr, lvl, idx, w, off, width)
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([][][]float64, 8)
	for k := range srcs {
		srcs[k] = (&csrCase{widths: widths, blocks: blocks}).sources(r)
	}
	return c, ptr, srcs
}

// BenchmarkCSRRowList measures the row path's kernel the way
// graph.Net.LevelRowSumsLanes drives it: RowsLanesAddTo over sorted
// lists of 35% of a level's rows (campaign-graph's Monte Carlo job
// re-sums that share of its last hidden level) for 1, 4 and 8 lanes,
// cycling through 64 lists so the row sequence is not one the branch
// predictor can learn. It reports ns per listed row and per edge, each
// per lane, stored slots per edge, and the view's bytes.
func BenchmarkCSRRowList(b *testing.B) {
	for _, sh := range benchCSRShapes {
		r := rng.New(3)
		c, ptr, srcs := benchCSR(b, r, sh.widths, sh.rows, sh.perRow)
		lists := make([][]int, 64)
		listed, edges := 0, 0
		for i := range lists {
			lists[i] = r.Sample(sh.rows, sh.rows*35/100)
			sort.Ints(lists[i])
			for _, row := range lists[i] {
				listed++
				edges += ptr[row+1] - ptr[row]
			}
		}
		for _, lanes := range []int{1, 4, 8} {
			ys := make([][]float64, lanes)
			for k := range ys {
				ys[k] = make([]float64, sh.rows)
			}
			b.Run(fmt.Sprintf("%s/lanes=%d", sh.name, lanes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, list := range lists {
						c.RowsLanesAddTo(ys, srcs[:lanes], list, nil)
					}
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*lanes)
				b.ReportMetric(ns/float64(listed), "ns/row")
				b.ReportMetric(ns/float64(edges), "ns/edge")
				b.ReportMetric(float64(len(c.W))/float64(ptr[len(ptr)-1]), "slots/edge")
				b.ReportMetric(float64(csrBytes(c)), "B/level")
			})
		}
	}
}

// BenchmarkCSRGatherLanes measures the grouped lane kernel over a
// whole level: GatherLanesAddTo for 4 and 8 lanes, reported per lane
// and per lane-edge.
func BenchmarkCSRGatherLanes(b *testing.B) {
	for _, sh := range benchCSRShapes {
		c, ptr, srcs := benchCSR(b, rng.New(3), sh.widths, sh.rows, sh.perRow)
		for _, lanes := range []int{4, 8} {
			ys := make([][]float64, lanes)
			for k := range ys {
				ys[k] = make([]float64, sh.rows)
			}
			b.Run(fmt.Sprintf("%s/lanes=%d", sh.name, lanes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.GatherLanesAddTo(ys, srcs[:lanes], nil)
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*lanes)
				b.ReportMetric(ns, "ns/lane")
				b.ReportMetric(ns/float64(ptr[len(ptr)-1]), "ns/edge")
			})
		}
	}
}
