// The Model interface abstracts the paper's computation model away from
// one concrete wiring (Lynch's abstraction argument): any feed-forward
// ϕ-network with a linear output node — dense nn.Network, the 1-D and
// 2-D convolutional nets of internal/conv — exposes its per-layer
// geometry, its distinct-weight maxima (receptive-field values for conv
// layers, the source of Section VI's less restrictive bounds), and
// layer-level forward kernels. Every downstream consumer (the fault
// engine, the bounds, the store, the query service) operates on Model,
// so convolutional workloads run at engine speed with no dense
// lowering on any hot path.
package nn

import (
	"repro/internal/activation"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Model is a feed-forward network with L hidden layers and a linear
// output node, exposed at the granularity the evaluation engine and the
// bounds need.
//
// # The Model contract
//
// This is the one authoritative statement of the conventions every
// implementation (dense, conv, graph) and every consumer relies on;
// per-method comments elsewhere point here rather than restating them.
//
//   - Indexing: layers are 1-based. Width(0) is the input dimension,
//     Width(L+1) is 1 (the single linear output node).
//
//   - Bias exclusion: MaxWeight covers a layer's DISTINCT weights only
//     — all N_l·N_{l-1} entries for a dense layer, the R(l) shared
//     kernel values for a convolutional one (Section VI), the per-edge
//     weights for a graph level. Biases are EXCLUDED: a bias is a
//     weight to a constant neuron, constant neurons never fail, so
//     biases never enter w_m or any Fep-style bound.
//
//   - Skip rows: the `skip` argument of LayerSums (and LevelSums) is a
//     sorted, deduplicated list of destination rows the caller will
//     override; the kernel MAY leave them uncomputed but is free to
//     compute them anyway (large layers do, to keep row ranges
//     contiguous for parallel dispatch).
//
//   - Bit-identity: LayerSums/OutputSum must be allocation-free and
//     bit-identical to the equivalent dense network's kernels. Zeros
//     outside a conv receptive field (or absent graph edges) contribute
//     exact zeros, so sparse evaluation can and must reproduce the
//     dense accumulation order — see tensor.ConvAcc and graph.Net.
//
//   - Layered view: the forward pass, the trace and the fault engines
//     are level-scheduled and run on DAGModel only. A model that is not
//     one reaches them through AsDAG's layered view, in which level l
//     reads only level l-1, in-edge k of a neuron is synapse (l-1, k),
//     and the level kernels are LayerSums and OutputSum — so a layered
//     model needs nothing beyond this interface to evaluate, trace and
//     run on every engine.
//
//   - Optional refinements: LaneSummer (multi-lane sums), DAGModel
//     (arbitrary-topology models; its InEdge/FanIn ordinal addressing
//     supersedes Weight), and fault.OutgoingScorer (per-neuron outgoing
//     weight mass) are discovered by type assertion with generic
//     fallbacks.
type Model interface {
	// NumLayers returns L, the number of hidden layers.
	NumLayers() int
	// Width returns N_l for 1 <= l <= L; l = 0 returns the input
	// dimension and l = L+1 returns 1 (the output node).
	Width(l int) int
	// MaxWeight returns w_m^{(l)} for 1 <= l <= L+1 over the layer's
	// distinct weights, biases excluded (see the Model contract above).
	MaxWeight(l int) float64
	// Activation returns the shared squashing function ϕ.
	Activation() activation.Func
	// LayerSums computes the pre-activation sums s^{(l)} of layer l
	// (1 <= l <= L) into dst (length Width(l)) from the previous
	// layer's outputs y (length Width(l-1)), including biases. skip
	// follows the Model contract's skip-rows convention.
	LayerSums(l int, dst, y []float64, skip []int)
	// Weight returns the synapse weight into neuron `to` of layer l
	// (1 <= l <= L+1; the output node ignores `to`) from neuron `from`
	// of layer l-1 — 0 outside a conv layer's receptive field.
	Weight(l, to, from int) float64
	// OutputSum evaluates the linear output node on the last hidden
	// layer's outputs.
	OutputSum(y []float64) float64
	// Validate checks internal consistency.
	Validate() error
}

// Network implements Model; the remaining methods live in network.go.

// NumLayers returns L (Model naming; Layers is the historical name).
func (n *Network) NumLayers() int { return len(n.Hidden) }

// Activation returns ϕ.
func (n *Network) Activation() activation.Func { return n.Act }

// LayerSums computes s^{(l)} = W^{(l)} y + b^{(l)} into dst. Skip-listed
// rows are omitted when the layer is small enough for the segmented
// serial kernel; layers large enough for the parallel matvec compute
// the doomed rows anyway — the waste is negligible there and the row
// range stays contiguous for the goroutine dispatch.
func (n *Network) LayerSums(l int, dst, y []float64, skip []int) {
	m := n.Hidden[l-1]
	b := n.bias(l - 1)
	if len(skip) == 0 || m.Rows*m.Cols >= 1<<15 {
		m.MulVecAddTo(dst, y, b)
		return
	}
	lo := 0
	for _, idx := range skip {
		m.MulVecAddRange(dst, y, b, lo, idx)
		lo = idx + 1
	}
	m.MulVecAddRange(dst, y, b, lo, m.Rows)
}

// Weight returns w^{(l)}_{to,from}; layer L+1 addresses the output
// synapses (to is ignored — the output node is the only receiver).
func (n *Network) Weight(l, to, from int) float64 {
	if l == len(n.Hidden)+1 {
		return n.Output[from]
	}
	return n.Hidden[l-1].At(to, from)
}

// OutputSum evaluates the linear output node.
func (n *Network) OutputSum(y []float64) float64 {
	return tensor.Dot(n.Output, y) + n.OutputBias
}

// ForwardModel evaluates m on x using sc's buffers: zero steady-state
// allocations. It is the module's one float64 forward loop: every model
// runs level by level over its DAG form (a layered model over sc's own
// view of it, see AsDAG), each level computed once and kept resident so
// later levels can read it. On a layered model that is LayerSums on the
// previous level and OutputSum on the last, bit-identical to a
// layer-by-layer sweep.
func ForwardModel(m Model, sc *Scratch, x []float64) float64 {
	dm := sc.dag(m)
	sc.ensure(m)
	L := dm.NumLayers()
	ys := sc.ensureLevels(L)
	ys[0] = x
	for l := 1; l <= L; l++ {
		s := sc.outs[l-1]
		dm.LevelSums(l, s, ys, nil)
		activation.Eval(dm.Activation(), s, s)
		ys[l] = s
	}
	return dm.OutputSumLevels(ys)
}

// dag returns m's DAG form for evaluation on sc: m itself when it is a
// DAGModel, otherwise sc's layered view rebound to m.
func (sc *Scratch) dag(m Model) DAGModel {
	if dm, ok := m.(DAGModel); ok {
		return dm
	}
	sc.view.bind(m)
	return &sc.view
}

// ensureLevels sizes sc.levels for L+1 level pointers (grow-only).
func (sc *Scratch) ensureLevels(L int) [][]float64 {
	if cap(sc.levels) < L+1 {
		sc.levels = make([][]float64, L+1)
	}
	sc.levels = sc.levels[:L+1]
	return sc.levels
}

// TraceModel evaluates m on x, like ForwardModel, and returns a Trace
// that owns its buffers (the persistent-trace form CleanTraces builds).
// Pass AsDAG(m) when tracing many inputs so the view is built once.
func TraceModel(m Model, x []float64) *Trace {
	dm := AsDAG(m)
	L := dm.NumLayers()
	// ys[v] holds level v's outputs; Outputs shares its tail.
	ys := make([][]float64, L+1)
	tr := &Trace{
		Input:   tensor.Clone(x),
		Sums:    make([][]float64, L),
		Outputs: ys[1:],
	}
	ys[0] = tr.Input
	for l := 1; l <= L; l++ {
		s := make([]float64, dm.Width(l))
		dm.LevelSums(l, s, ys, nil)
		tr.Sums[l-1] = s
		out := make([]float64, len(s))
		activation.Eval(dm.Activation(), out, s)
		ys[l] = out
	}
	tr.Output = dm.OutputSumLevels(ys)
	return tr
}

// ForwardBatchModel evaluates m on many inputs in parallel: per-input
// ForwardModel on pooled scratch, except that a dense network given at
// least gemmBatchMin inputs runs one matrix-matrix product per layer
// (bit-identical either way).
func ForwardBatchModel(m Model, xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	if n, ok := m.(*Network); ok && len(xs) >= gemmBatchMin {
		n.forwardBatchGEMM(out, xs)
		return out
	}
	parallel.ForChunked(len(xs), 1, func(lo, hi int) {
		sc := GetScratch(m)
		for i := lo; i < hi; i++ {
			out[i] = ForwardModel(m, sc, xs[i])
		}
		PutScratch(sc)
	})
	return out
}
