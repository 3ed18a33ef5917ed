package nn

import (
	"repro/internal/activation"
	"repro/internal/tensor"
)

// DAGModel widens Model to arbitrary feed-forward DAGs: neurons are
// still grouped into topological levels 1..L (level 0 is the input,
// level L+1 the output node), but a neuron may read from ANY earlier
// level, not just the previous one. Strictly layered models are the
// special case where every SrcLevels(l) is {l-1}.
//
// Addressing convention: because a node's inputs no longer form one
// contiguous previous layer, its in-edges are addressed by ORDINAL —
// the k-th edge in ascending (srcLevel, srcIdx) order, the same order
// the accumulation kernels traverse. Engines evaluating a DAGModel must
// route per-edge reads through InEdge/FanIn (never Weight, whose
// (to, from) addressing is only meaningful for the previous level), and
// fault.SynapseFault.From is that ordinal for DAG models.
type DAGModel interface {
	Model
	// SrcLevels returns the sorted distinct source levels feeding layer
	// l (1 <= l <= L+1). The slice is owned by the model; callers must
	// not mutate it.
	SrcLevels(l int) []int
	// FanIn returns the in-degree of neuron `to` of layer l
	// (1 <= l <= L+1; the output node is l = L+1, to = 0).
	FanIn(l, to int) int
	// InEdge returns the k-th in-edge of neuron `to` of layer l
	// (0 <= k < FanIn(l, to)): the source level and index plus the edge
	// weight, in ascending (srcLevel, srcIdx) order.
	InEdge(l, to, k int) (srcLevel, srcIdx int, w float64)
	// LevelSums computes layer l's pre-activation sums into dst from
	// the outputs of every level: ys[v] holds level v's outputs
	// (ys[0] is the input; only levels in SrcLevels(l) are read). skip
	// follows the LayerSums convention. For a layer whose only source
	// is l-1 the result is bit-identical to LayerSums(l, dst, ys[l-1],
	// skip).
	LevelSums(l int, dst []float64, ys [][]float64, skip []int)
	// OutputSumLevels evaluates the linear output node over every
	// level's outputs (bit-identical to OutputSum(ys[L]) when the
	// output reads only level L).
	OutputSumLevels(ys [][]float64) float64
}

// RowDAG is an optional DAGModel refinement for models that know, node
// by node, which rows read it. The fault engines use it to follow
// damage row by row: a fault disturbs only the rows downstream of it,
// so a trace evaluation re-sums just those rows and copies the rest
// from the clean trace. Models without it (the layered view, conv) are
// followed level by level.
type RowDAG interface {
	DAGModel
	// Readers returns the nodes that read node i of level v
	// (1 <= v <= L) in ascending (level, row) order; the output node is
	// (L+1, 0). The slice is owned by the model; callers must not
	// mutate it.
	Readers(v, i int) []NodeRef
	// LevelRowSums writes level l's pre-activation sums, biases
	// included, into dst[r] for every r in rows and leaves the other
	// entries of dst untouched. Each written entry is bit-identical to
	// the one LevelSums computes over the same sources.
	LevelRowSums(l int, dst []float64, ys [][]float64, rows []int)
}

// NodeRef addresses node Index of level Level.
type NodeRef struct{ Level, Index int32 }

// AsDAG returns m as a DAGModel: m itself when it already is one,
// otherwise its layered view — the DAG in which every level reads only
// the level before it (Lynch's abstraction argument). The view calls
// m's own kernels (LevelSums is LayerSums on ys[l-1], OutputSumLevels is
// OutputSum on ys[L], in-edge k of a neuron is synapse (l-1, k)), so
// level-scheduled engines evaluate layered models bit-identically to a
// layer-by-layer sweep. Building a view allocates; engines build it once.
func AsDAG(m Model) DAGModel {
	if dm, ok := m.(DAGModel); ok {
		return dm
	}
	L := m.NumLayers()
	prev := make([]int, L+2)
	for l := 1; l <= L+1; l++ {
		prev[l] = l - 1
	}
	return &layered{Model: m, prev: prev, out: L}
}

// layered is the DAG view of a strictly layered model (see AsDAG).
type layered struct {
	Model
	// prev[l] is l-1, the only source level of level l.
	prev []int
	// out is L, the level the output node reads.
	out int
}

func (v *layered) SrcLevels(l int) []int { return v.prev[l : l+1 : l+1] }

func (v *layered) FanIn(l, _ int) int { return v.Width(l - 1) }

func (v *layered) InEdge(l, to, k int) (srcLevel, srcIdx int, w float64) {
	return l - 1, k, v.Weight(l, to, k)
}

func (v *layered) LevelSums(l int, dst []float64, ys [][]float64, skip []int) {
	v.LayerSums(l, dst, ys[l-1], skip)
}

func (v *layered) OutputSumLevels(ys [][]float64) float64 {
	return v.OutputSum(ys[v.out])
}

// IsLayered reports whether m is expressible as a strict layer chain:
// every hidden layer and the output read only the immediately preceding
// level. Non-DAG models are layered by construction.
func IsLayered(m Model) bool {
	dm, ok := m.(DAGModel)
	if !ok {
		return true
	}
	for l := 1; l <= m.NumLayers()+1; l++ {
		src := dm.SrcLevels(l)
		if len(src) > 1 || (len(src) == 1 && src[0] != l-1) {
			return false
		}
	}
	return true
}

// ensureLevels sizes sc.levels for L+1 level pointers (grow-only).
func (sc *Scratch) ensureLevels(L int) [][]float64 {
	if cap(sc.levels) < L+1 {
		sc.levels = make([][]float64, L+1)
	}
	sc.levels = sc.levels[:L+1]
	return sc.levels
}

// forwardDAG is ForwardModel's level-scheduled path: every level is
// computed once, in topological order, and stays resident so later
// levels can read it (the graph memory model — O(total widths) live
// state instead of the layered engine's two rolling vectors).
func forwardDAG(m DAGModel, sc *Scratch, x []float64) float64 {
	sc.ensure(m)
	L := m.NumLayers()
	ys := sc.ensureLevels(L)
	ys[0] = x
	for l := 1; l <= L; l++ {
		s := sc.outs[l-1]
		m.LevelSums(l, s, ys, nil)
		activation.Eval(m.Activation(), s, s)
		ys[l] = s
	}
	return m.OutputSumLevels(ys)
}

// traceDAG is TraceModel's level-scheduled path; the returned Trace
// owns its buffers.
func traceDAG(m DAGModel, x []float64) *Trace {
	L := m.NumLayers()
	tr := &Trace{
		Input:   tensor.Clone(x),
		Sums:    make([][]float64, L),
		Outputs: make([][]float64, L),
	}
	ys := make([][]float64, L+1)
	ys[0] = x
	for l := 1; l <= L; l++ {
		s := make([]float64, m.Width(l))
		m.LevelSums(l, s, ys, nil)
		tr.Sums[l-1] = s
		out := make([]float64, len(s))
		activation.Eval(m.Activation(), out, s)
		tr.Outputs[l-1] = out
		ys[l] = out
	}
	tr.Output = m.OutputSumLevels(ys)
	return tr
}
