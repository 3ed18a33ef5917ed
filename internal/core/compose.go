package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nn"
)

// SubnetCert is a compositional certificate for a slice of a network:
// a stage with In inputs and Out outputs such that, for any input and
// any admissible fault configuration inside the stage,
//
//	|out_k(x, faults) - out_k(x, clean)| <= Fep[k], and
//	|out_k(x') - out_k(x)| <= Σ_i Gain[k][i] · |x'_i - x_i|
//
// for the CLEAN stage. Gain is a weight-only Lipschitz bound and Fep a
// weight-only fault bound, so both hold uniformly over inputs — the
// property composition needs.
type SubnetCert struct {
	In, Out int
	// Gain[k][i] bounds output k's sensitivity to input i.
	Gain [][]float64
	// Fep[k] bounds output k's deviation from the stage's own faults.
	Fep []float64
}

// Validate checks the certificate's dimensions and value sanity.
func (c SubnetCert) Validate() error {
	if c.In <= 0 || c.Out <= 0 {
		return fmt.Errorf("core: subnet certificate %dx%d", c.In, c.Out)
	}
	if len(c.Gain) != c.Out || len(c.Fep) != c.Out {
		return fmt.Errorf("core: subnet certificate has %d gain rows, %d Fep entries for %d outputs", len(c.Gain), len(c.Fep), c.Out)
	}
	for k, row := range c.Gain {
		if len(row) != c.In {
			return fmt.Errorf("core: gain row %d has %d entries for %d inputs", k, len(row), c.In)
		}
		for _, g := range row {
			if g < 0 || math.IsNaN(g) {
				return fmt.Errorf("core: negative or NaN gain in row %d", k)
			}
		}
	}
	for k, f := range c.Fep {
		if f < 0 || math.IsNaN(f) {
			return fmt.Errorf("core: negative or NaN Fep entry %d", k)
		}
	}
	return nil
}

// Compose stitches two independently certified stages, b after a, into
// a certificate for the composite. The composite gain is the product of
// the stage gains, and the composite fault bound is
//
//	Fep[k] = b.Fep[k] + Σ_j b.Gain[k][j] · a.Fep[j]:
//
// b's own faults deviate its output by b.Fep even on a's faulted
// output (b.Fep is input-uniform), and a's fault deviation — at most
// a.Fep[j] per input j of b — passes through b's clean Lipschitz gain.
// The triangle inequality over the two hybrids makes the sum a sound
// bound for the stitched network, which the composition tests assert
// against the monolith's measured error.
func Compose(a, b SubnetCert) (SubnetCert, error) {
	if err := a.Validate(); err != nil {
		return SubnetCert{}, err
	}
	if err := b.Validate(); err != nil {
		return SubnetCert{}, err
	}
	if a.Out != b.In {
		return SubnetCert{}, fmt.Errorf("core: Compose: first stage has %d outputs, second expects %d inputs", a.Out, b.In)
	}
	out := SubnetCert{
		In:   a.In,
		Out:  b.Out,
		Gain: make([][]float64, b.Out),
		Fep:  make([]float64, b.Out),
	}
	for k := 0; k < b.Out; k++ {
		row := make([]float64, a.In)
		fep := b.Fep[k]
		for j := 0; j < a.Out; j++ {
			g := b.Gain[k][j]
			if g == 0 {
				continue
			}
			fep += g * a.Fep[j]
			for i := 0; i < a.In; i++ {
				row[i] += g * a.Gain[j][i]
			}
		}
		out.Gain[k] = row
		out.Fep[k] = fep
	}
	return out, nil
}

// CertifySpan certifies levels lo..hi of a model as a standalone stage:
// inputs are level lo-1's outputs, outputs level hi's (hi = L+1 is the
// output node, making Out = 1). faults[t-lo] is the neuron-fault budget
// of level t for the hidden levels of the span (the output node hosts
// no neuron faults), and c caps each faulty node's emitted deviation.
//
// The span must be closed under the cut: no edge into the span may
// originate below level lo-1 (use Cuts to find the levels where a model
// can be split). Gain runs a forward sensitivity sweep from the cut and
// Fep a reverse amplification sweep per output, each restricted to the
// span's edges — the same per-node algebra as NodeShape.
func CertifySpan(m nn.Model, lo, hi int, faults []int, c float64) (SubnetCert, error) {
	L := m.NumLayers()
	if lo < 1 || hi > L+1 || lo > hi {
		return SubnetCert{}, fmt.Errorf("core: CertifySpan span [%d, %d] outside [1, %d]", lo, hi, L+1)
	}
	if c < 0 {
		return SubnetCert{}, fmt.Errorf("core: negative capacity")
	}
	hidHi := hi
	if hidHi > L {
		hidHi = L
	}
	if len(faults) != hidHi-lo+1 {
		return SubnetCert{}, fmt.Errorf("core: CertifySpan has %d fault budgets for hidden levels %d..%d", len(faults), lo, hidHi)
	}
	for t := lo; t <= hidHi; t++ {
		if f := faults[t-lo]; f < 0 || f > m.Width(t) {
			return SubnetCert{}, fmt.Errorf("core: f_%d = %d outside [0, %d]", t, f, m.Width(t))
		}
	}
	k := m.Activation().Lipschitz()
	dag := nn.AsDAG(m)
	in := m.Width(lo - 1)
	outW := m.Width(hi)
	// Forward gain sweep: gain[v][j][i] bounds node (v, j)'s sensitivity
	// to cut input i.
	gain := make([][][]float64, hi+1)
	gain[lo-1] = make([][]float64, in)
	for i := 0; i < in; i++ {
		row := make([]float64, in)
		row[i] = 1
		gain[lo-1][i] = row
	}
	for t := lo; t <= hi; t++ {
		wt := m.Width(t)
		gain[t] = make([][]float64, wt)
		for j := 0; j < wt; j++ {
			row := make([]float64, in)
			d := dag.FanIn(t, j)
			for e := 0; e < d; e++ {
				sl, si, w := dag.InEdge(t, j, e)
				if sl < lo-1 {
					return SubnetCert{}, fmt.Errorf("core: CertifySpan: edge into level %d from level %d crosses the cut at %d", t, sl, lo-1)
				}
				aw := math.Abs(w)
				if aw == 0 {
					continue
				}
				src := gain[sl][si]
				for i := 0; i < in; i++ {
					row[i] += aw * src[i]
				}
			}
			if t <= L {
				for i := range row {
					row[i] *= k
				}
			}
			gain[t][j] = row
		}
	}
	cert := SubnetCert{In: in, Out: outW, Gain: gain[hi], Fep: make([]float64, outW)}
	// Reverse amplification sweep per span output: ampTo[v][j] bounds
	// output `o`'s deviation per unit deviation of node (v, j)'s emitted
	// value, within the span.
	amp := make([][]float64, hi+1)
	for o := 0; o < outW; o++ {
		for t := lo; t <= hi; t++ {
			if amp[t] == nil {
				amp[t] = make([]float64, m.Width(t))
			} else {
				for j := range amp[t] {
					amp[t][j] = 0
				}
			}
		}
		amp[hi][o] = 1
		for t := hi; t >= lo; t-- {
			for j := 0; j < m.Width(t); j++ {
				g := amp[t][j]
				if t <= L {
					g *= k
				}
				if g == 0 {
					continue
				}
				d := dag.FanIn(t, j)
				for e := 0; e < d; e++ {
					sl, si, w := dag.InEdge(t, j, e)
					if sl >= lo {
						amp[sl][si] += math.Abs(w) * g
					}
				}
			}
		}
		total := 0.0
		scratch := make([]float64, 0, 64)
		for t := lo; t <= hidHi; t++ {
			f := faults[t-lo]
			if f == 0 {
				continue
			}
			scratch = append(scratch[:0], amp[t]...)
			sort.Sort(sort.Reverse(sort.Float64Slice(scratch)))
			for i := 0; i < f; i++ {
				total += scratch[i]
			}
		}
		cert.Fep[o] = c * total
	}
	return cert, nil
}

// Cuts returns the levels v (1 <= v <= L) at which the model can be
// split into the spans [1..v] and [v+1..L+1] with no edge crossing the
// cut — the valid CertifySpan boundaries. Strictly layered models can
// be cut everywhere; skip connections remove the levels they jump over.
func Cuts(m nn.Model) []int {
	L := m.NumLayers()
	// crossing[v] counts edges (sl -> t) with sl < v < t, built as a
	// difference array over the cut positions each edge invalidates.
	diff := make([]int, L+2)
	dag := nn.AsDAG(m)
	for t := 1; t <= L+1; t++ {
		for j := 0; j < m.Width(t); j++ {
			d := dag.FanIn(t, j)
			for e := 0; e < d; e++ {
				sl, _, _ := dag.InEdge(t, j, e)
				if sl+1 <= t-1 {
					diff[sl+1]++
					diff[t]--
				}
			}
		}
	}
	var cuts []int
	run := 0
	for v := 1; v <= L; v++ {
		run += diff[v]
		if run == 0 {
			cuts = append(cuts, v)
		}
	}
	return cuts
}
