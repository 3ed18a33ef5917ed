// Package metrics provides the measurement and reporting utilities shared
// by the experiment harness: sup-norm estimation over input samplers,
// summary statistics, log-log slope fitting (to verify the polynomial
// dependency of the error on the Lipschitz constant, Figure 3), and
// aligned text/CSV rendering of the series and tables the paper reports.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// SupDistance estimates sup_x |f(x) - g(x)| over the given sample points,
// evaluated in parallel. With dense samplers this is the empirical ε' of
// Definition 1.
func SupDistance(f, g func([]float64) float64, points [][]float64) float64 {
	return parallel.MaxFloat64(len(points), func(i int) float64 {
		return math.Abs(f(points[i]) - g(points[i]))
	})
}

// Grid returns the regular lattice of perDim^d points covering [0,1]^d
// (endpoints included). It panics if the lattice would exceed 2^22 points.
func Grid(d, perDim int) [][]float64 {
	if d <= 0 || perDim < 2 {
		panic("metrics: Grid requires d >= 1 and perDim >= 2")
	}
	total := 1
	for i := 0; i < d; i++ {
		total *= perDim
		if total > 1<<22 {
			panic("metrics: Grid too large")
		}
	}
	pts := make([][]float64, total)
	for i := range pts {
		p := make([]float64, d)
		idx := i
		for j := 0; j < d; j++ {
			p[j] = float64(idx%perDim) / float64(perDim-1)
			idx /= perDim
		}
		pts[i] = p
	}
	return pts
}

// RandomPoints returns n uniform points in [0,1]^d.
func RandomPoints(r *rng.Rand, d, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		r.Floats(pts[i], 0, 1)
	}
	return pts
}

// StandardInputs returns the standard evaluation sample of [0,1]^d
// that the CLI and the query service measure damaged models on: a
// 41-point-per-axis grid for d <= 2, and beyond that 500 uniform points
// from the fixed seed 12345.
func StandardInputs(d int) [][]float64 {
	if d <= 2 {
		return Grid(d, 41)
	}
	return RandomPoints(rng.New(12345), d, 500)
}

// Stats summarises a sample.
type Stats struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
}

// Summarize computes summary statistics of xs (zero value for empty).
func Summarize(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	s := Stats{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, v := range xs {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, v := range xs {
		d := v - s.Mean
		varSum += d * d
	}
	s.Std = math.Sqrt(varSum / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// LogLogSlope fits y ≈ a·x^b by least squares on (log x, log y) and
// returns the exponent b. Pairs with non-positive coordinates are
// skipped; it returns NaN with fewer than two usable pairs. Figure 3's
// claim — error polynomial in K — is "LogLogSlope over the K sweep is
// finite and modest" (an exponential dependency would curve upward).
func LogLogSlope(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("metrics: LogLogSlope length mismatch")
	}
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	slope, _ := LeastSquares(lx, ly)
	return slope
}

// LeastSquares fits y ≈ slope·x + intercept.
func LeastSquares(x, y []float64) (slope, intercept float64) {
	n := float64(len(x))
	if len(x) != len(y) || len(x) < 2 {
		panic("metrics: LeastSquares needs >= 2 points of equal length")
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN(), math.NaN()
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// Pearson returns the linear correlation coefficient of x and y.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		panic("metrics: Pearson needs >= 2 points of equal length")
	}
	sx := Summarize(x)
	sy := Summarize(y)
	if sx.Std == 0 || sy.Std == 0 {
		return math.NaN()
	}
	cov := 0.0
	for i := range x {
		cov += (x[i] - sx.Mean) * (y[i] - sy.Mean)
	}
	cov /= float64(len(x))
	return cov / (sx.Std * sy.Std)
}

// Series is one named curve of an experiment figure.
type Series struct {
	Label string
	X, Y  []float64
}

// NewSeries pre-sizes a series.
func NewSeries(label string, capacity int) *Series {
	return &Series{Label: label, X: make([]float64, 0, capacity), Y: make([]float64, 0, capacity)}
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// FormatNum renders a float the way tables do (compact, scientific
// notation for extreme magnitudes).
func FormatNum(v float64) string { return fmtNum(v) }

func fmtNum(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e5 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.4e", v)
	default:
		return fmt.Sprintf("%.5g", v)
	}
}
