package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// laneShapes sweeps ragged and aligned dimensions around the kernel
// unroll width (4) and the L2 tile edge, the places a blocked or
// multi-lane kernel can diverge from its scalar reference. The last two
// reach the 1<<15-element threshold of the pooled parallel dispatch;
// 448x448 is the Monte Carlo matrix of the campaign benchmark.
var laneShapes = []struct{ rows, cols int }{
	{1, 1}, {1, 3}, {3, 1}, {4, 4}, {5, 7}, {7, 5},
	{8, 8}, {16, 13}, {13, 16}, {31, 33}, {64, 64},
	{127, 129}, {129, 127}, {128, 128},
	{183, 181}, {448, 448},
}

// TestMulVecLanesMatchesSingleLane is the bit-identity property the
// batched fault engine rests on: for every lane count (below, at, and
// above the pair and 8-lane groupings, up to two 8-lane groups plus
// leftovers), every ragged shape, distinct or aliased right-hand sides
// and with or without bias, lane k of MulVecLanesAddTo must equal the
// single-lane MulVecAddTo on the same input bit for bit — not
// approximately, and not merely == (which would forgive a signed zero).
func TestMulVecLanesMatchesSingleLane(t *testing.T) {
	t.Logf("AVX2 8-lane kernel: %v", hasAVX2)
	r := rng.New(71)
	for _, sh := range laneShapes {
		m := RandomMatrix(r, sh.rows, sh.cols, 1.5)
		if sh.rows > 1 {
			// A zero row sums signed zeros, which == cannot tell apart.
			Fill(m.Row(sh.rows-1), 0)
		}
		bias := make([]float64, sh.rows)
		r.Floats(bias, -1, 1)
		want := make([]float64, sh.rows)
		for lanes := 1; lanes <= 17; lanes++ {
			xs := make([][]float64, lanes)
			ys := make([][]float64, lanes)
			for k := range xs {
				xs[k] = make([]float64, sh.cols)
				r.Floats(xs[k], -2, 2)
				ys[k] = make([]float64, sh.rows)
			}
			// Aliased: lanes share three right-hand sides, as lanes
			// diverging at the same layer of one clean trace do.
			aliased := make([][]float64, lanes)
			for k := range aliased {
				aliased[k] = xs[k%3]
			}
			for _, in := range []struct {
				name string
				xs   [][]float64
			}{{"distinct", xs}, {"aliased", aliased}} {
				for _, b := range [][]float64{bias, nil} {
					m.MulVecLanesAddTo(ys, in.xs, b)
					for k := range in.xs {
						m.MulVecAddTo(want, in.xs[k], b)
						for j := range want {
							if math.Float64bits(ys[k][j]) != math.Float64bits(want[j]) {
								t.Fatalf("%dx%d lanes=%d %s nil-bias=%v lane %d row %d: %v != single-lane %v",
									sh.rows, sh.cols, lanes, in.name, b == nil, k, j, ys[k][j], want[j])
							}
						}
					}
				}
			}
		}
	}
}

// TestMatMulBlockedMatchesNaive pins the cache-blocked GEMM to the
// naive triple loop bit for bit across shapes straddling the tile edge.
// Blocking reorders which (i,j) cell is touched when, but every cell
// still accumulates its k-terms in ascending order, so the sums are
// identical floating-point expressions.
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	r := rng.New(73)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {17, 9, 23}, {64, 64, 64},
		{127, 128, 129}, {130, 127, 126}, {200, 50, 3},
	}
	for _, sh := range shapes {
		a := RandomMatrix(r, sh.m, sh.k, 1)
		b := RandomMatrix(r, sh.k, sh.n, 1)
		want := matMulNaive(a, b)
		got := NewMatrix(sh.m, sh.n)
		MatMulBlockedInto(got, a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%dx%d: blocked[%d]=%v != naive %v", sh.m, sh.k, sh.n, i, got.Data[i], want.Data[i])
			}
		}
		// MatMul routes through the blocked kernel; same contract.
		if got2 := MatMul(a, b); !got2.EqualApprox(want, 0) {
			t.Fatalf("%dx%dx%d: MatMul != naive", sh.m, sh.k, sh.n)
		}
	}
}

// TestMulVecLanesValidation pins the shape panics.
func TestMulVecLanesValidation(t *testing.T) {
	m := NewMatrix(2, 3)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"lane count mismatch", func() {
			m.MulVecLanesAddTo(make([][]float64, 2), make([][]float64, 1), nil)
		}},
		{"short x", func() {
			m.MulVecLanesAddTo([][]float64{make([]float64, 2)}, [][]float64{make([]float64, 2)}, nil)
		}},
		{"short y", func() {
			m.MulVecLanesAddTo([][]float64{make([]float64, 1)}, [][]float64{make([]float64, 3)}, nil)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.run()
		}()
	}
}

// f32Ref is the scalar float32 reference: plain 4-way-unrolled dot per
// row, mirroring Dot's accumulation shape.
func f32Ref(m *Matrix32, y, x, b []float32) {
	for rIdx := 0; rIdx < m.Rows; rIdx++ {
		row := m.Row(rIdx)
		s := Dot32(row, x)
		if b != nil {
			s += b[rIdx]
		}
		y[rIdx] = s
	}
}

// TestF32LanesMatchSingle pins the float32 multi-lane kernel to the
// single-lane float32 path, lane by lane, bit for bit. (The float32
// lane is not bit-identical to float64 — that gap is certified by
// quant.Float32Lane — but within float32 the lanes must agree.)
func TestF32LanesMatchSingle(t *testing.T) {
	r := rng.New(79)
	for _, sh := range laneShapes {
		m64 := RandomMatrix(r, sh.rows, sh.cols, 1.5)
		m := ToMatrix32(m64)
		b64 := make([]float64, sh.rows)
		r.Floats(b64, -1, 1)
		b := ToFloat32(b64)
		for lanes := 1; lanes <= 5; lanes++ {
			xs := make([][]float32, lanes)
			ys := make([][]float32, lanes)
			for k := range xs {
				x64 := make([]float64, sh.cols)
				r.Floats(x64, -2, 2)
				xs[k] = ToFloat32(x64)
				ys[k] = make([]float32, sh.rows)
			}
			m.MulVecLanesAddTo(ys, xs, b)
			want := make([]float32, sh.rows)
			for k := range xs {
				f32Ref(m, want, xs[k], b)
				for j := range want {
					if ys[k][j] != want[j] {
						t.Fatalf("f32 %dx%d lanes=%d lane %d row %d: %v != %v",
							sh.rows, sh.cols, lanes, k, j, ys[k][j], want[j])
					}
				}
				m.MulVecAddTo(want, xs[k], b)
				for j := range want {
					if ys[k][j] != want[j] {
						t.Fatalf("f32 MulVecAddTo %dx%d lane %d row %d: %v != %v",
							sh.rows, sh.cols, k, j, ys[k][j], want[j])
					}
				}
			}
		}
	}
}

// TestFloat32Converters round-trips the slice converters.
func TestFloat32Converters(t *testing.T) {
	xs := []float64{0.5, -1.25, 3, 0}
	f := ToFloat32(xs)
	back := ToFloat64(f)
	for i := range xs {
		if back[i] != xs[i] { // all exactly representable
			t.Fatalf("round trip [%d]: %v != %v", i, back[i], xs[i])
		}
	}
	m := ToMatrix32(FromRows([][]float64{{1, 2}, {3, 4}}))
	if m.At(1, 0) != 3 {
		t.Fatalf("ToMatrix32 At(1,0) = %v", m.At(1, 0))
	}
}
