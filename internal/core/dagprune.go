package core

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// DAGSubtreeBounder prices branch-and-bound pruning for the
// tree-structured exhaustive search (fault.WorstCase) over any model —
// layered models reach it through their nn.AsDAG view. Given a node of
// the configuration tree (levels 1..d damaged and measured, levels > d
// still free) it bounds the output deviation of EVERY leaf below that
// node, so a subtree whose bound is strictly below the incumbent worst
// error can be skipped without evaluating a single leaf. It keeps one
// propagation coefficient PER NODE (the NodeShape construction
// restricted to free suffixes) rather than one per layer: skip edges,
// which route a deviation AROUND the measured intermediate levels, are
// priced exactly along their own paths, and on layered models the
// per-edge weights prune far harder than the Fep recurrence's
// per-layer maxima.
//
// Write δ_u(x) ≥ 0 for the absolute deviation of node u's emitted value
// from the clean trace on input x. At a depth-d tree node the levels
// 1..d are damaged and measured (δ exact), the levels > d are free. For
// any completion of the free levels, a correct free node is K-Lipschitz
// in its received sum and a faulty free node emits inj(clean) — a
// deviation that is exact and independent of upstream damage. Unrolling
// those two facts along every path gives
//
//	|Fneu(x) - Ffail(x)| <= Σ_{lvl(u) <= d} coef_d(u)·δ_u(x)
//	                      + Σ_{l > d} topf_l(x)
//
// where coef_d(u) — Coef(d, lvl(u))[idx(u)] — sums |w| products times
// K per correct intermediate node over every path from u to the output
// that stays strictly inside the free levels (paths through other
// measured nodes are already accounted by THEIR δ), and topf_l(x)
// bounds Σ amp(u)·dev_u(x) over any admissible choice of the f_l faulty
// nodes of free level l, with amp(u) the all-levels-free amplification
// — exactly NodeShape's Amp, exposed here so callers price the tails
// and the leaf layer's own combinations with the same coefficients.
//
// Soundness is what makes pruning free: the bound dominates every leaf
// of the subtree in real arithmetic, so skipping a subtree whose bound
// is STRICTLY below an attained error (modulo the caller's rounding
// slack) can never discard a configuration attaining the maximum, and
// ties are never pruned. On a strictly layered model coef_d(u) is zero
// for every u at levels < d — all paths thread the measured level d —
// recovering the Fep recurrence's layer-by-layer structure with
// per-edge weights instead of per-layer maxima.
type DAGSubtreeBounder struct {
	layers   int
	maxDepth int
	// amp[l-1][i]: node (l, i)'s all-levels-free amplification (the
	// NodeShape amp — one reverse sweep with every level free).
	amp [][]float64
	// coef[d][v-1][i]: node (v, i)'s amplification through the free
	// levels > d only, for 1 <= v <= d <= maxDepth.
	coef [][][]float64
}

// NewDAGSubtreeBounder builds per-node propagation coefficients for a
// fault distribution (faults[l-1] faulty neurons in layer l) over any
// Model — one reverse topological sweep over its nn.AsDAG view, O(E)
// plus a copy of the measured levels per damaged depth. It validates and
// returns errors: the tree engine is reachable from serve requests.
func NewDAGSubtreeBounder(m nn.Model, faults []int) (*DAGSubtreeBounder, error) {
	act := m.Activation()
	k := act.Lipschitz()
	if k <= 0 || math.IsNaN(k) {
		return nil, fmt.Errorf("core: Lipschitz constant %v", k)
	}
	L := m.NumLayers()
	if len(faults) != L {
		return nil, fmt.Errorf("core: fault distribution has %d entries for %d layers", len(faults), L)
	}
	maxDepth := 0
	for l := 1; l <= L; l++ {
		w := m.Width(l)
		if w <= 0 {
			return nil, fmt.Errorf("core: layer %d has width %d", l, w)
		}
		if f := faults[l-1]; f < 0 || f > w {
			return nil, fmt.Errorf("core: f_%d = %d outside [0, N_%d=%d]", l, f, l, w)
		}
		if faults[l-1] > 0 {
			maxDepth = l
		}
	}
	b := &DAGSubtreeBounder{layers: L, maxDepth: maxDepth, coef: make([][][]float64, maxDepth+1)}
	if err := b.sweep(nn.AsDAG(m), k); err != nil {
		return nil, err
	}
	return b, nil
}

// sweep computes, for every node, the amplification of a unit deviation
// of its emitted value into the output, in one reverse pass that pushes
// each level's amplification (times K for a hidden node) along its
// in-edges. Once the levels > d are pushed, a node at level v <= d holds
// its amplification along paths whose INTERMEDIATE nodes all sit at
// levels > d — the depth-d coefficients, whose lower levels are
// measured rather than propagated — so coef[d] is that state, copied
// before level d pushes; when the pass ends every node holds its
// all-levels-free amp.
func (b *DAGSubtreeBounder) sweep(m nn.DAGModel, k float64) error {
	L := b.layers
	acc := make([][]float64, L+2)
	for t := 1; t <= L; t++ {
		acc[t] = make([]float64, m.Width(t))
	}
	acc[L+1] = []float64{1}
	for t := L + 1; t >= 1; t-- {
		if t <= b.maxDepth {
			// Every level > t is pushed: these are the depth-t
			// coefficients.
			b.coef[t] = make([][]float64, t)
			for v := 1; v <= t; v++ {
				b.coef[t][v-1] = append([]float64(nil), acc[v]...)
			}
		}
		for j, g := range acc[t] {
			if t <= L {
				g *= k
			}
			if g == 0 {
				continue
			}
			deg := m.FanIn(t, j)
			for e := 0; e < deg; e++ {
				sl, si, w := m.InEdge(t, j, e)
				if math.IsNaN(w) {
					return fmt.Errorf("core: NaN weight into layer %d", t)
				}
				if sl == 0 {
					continue // inputs cannot deviate
				}
				acc[sl][si] += math.Abs(w) * g
			}
		}
	}
	b.amp = acc[1 : L+1]
	return nil
}

// Layers returns L.
func (b *DAGSubtreeBounder) Layers() int { return b.layers }

// MaxDepth returns the deepest 1-based layer hosting faults (0 when the
// distribution is empty); Coef is defined for depths 1..MaxDepth.
func (b *DAGSubtreeBounder) MaxDepth() int { return b.maxDepth }

// Amp returns level l's all-levels-free per-node amplifications
// (l = 1..L) — the coefficients pricing faults at FREE levels: a faulty
// node's exact deviation propagates through downstream levels that are
// all free at any bound depth above it. The slice is owned by the
// bounder; callers must not mutate it.
func (b *DAGSubtreeBounder) Amp(l int) []float64 { return b.amp[l-1] }

// Coef returns level v's per-node coefficients for a bound at depth d
// (1 <= v <= d <= MaxDepth): entry i multiplies the measured deviation
// of node (v, i). The slice is owned by the bounder; callers must not
// mutate it.
func (b *DAGSubtreeBounder) Coef(d, v int) []float64 { return b.coef[d][v-1] }
