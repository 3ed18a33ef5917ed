package nn

// BatchScratch holds the P-lane evaluation buffers of the batched plan
// engine: for every hidden layer, `lanes` vectors of that layer's
// width, allocated as one flat backing array per layer so the lane
// views of a layer sit contiguously in memory. Like Scratch it is NOT
// safe for concurrent use — give each worker its own — and buffers are
// grow-only, so the steady state allocates nothing.
type BatchScratch struct {
	// sizedFor/sizedLanes tag the (model, lane count) the buffers
	// currently fit, skipping the per-layer walk on the hot path.
	sizedFor   Model
	sizedLanes int
	// lanes[l-1][p] is lane p's buffer for layer l.
	lanes [][][]float64
	// flat[l-1] backs lanes[l-1].
	flat [][]float64
}

// Ensure sizes the buffers for `lanes` lanes over m (grow-only).
func (sc *BatchScratch) Ensure(m Model, lanes int) {
	if sc.sizedFor == m && sc.sizedLanes >= lanes {
		return
	}
	L := m.NumLayers()
	sc.flat = EnsureLayerSlices(m, lanes, sc.flat)
	if cap(sc.lanes) < L {
		sc.lanes = make([][][]float64, L)
	}
	sc.lanes = sc.lanes[:L]
	for l := 1; l <= L; l++ {
		w := m.Width(l)
		if cap(sc.lanes[l-1]) < lanes {
			sc.lanes[l-1] = make([][]float64, lanes)
		}
		sc.lanes[l-1] = sc.lanes[l-1][:lanes]
		for p := 0; p < lanes; p++ {
			sc.lanes[l-1][p] = sc.flat[l-1][p*w : (p+1)*w]
		}
	}
	sc.sizedFor = m
	sc.sizedLanes = lanes
}

// Layer returns the lane buffers of layer l (1..L); only the first
// `lanes` passed to Ensure are valid.
func (sc *BatchScratch) Layer(l int) [][]float64 { return sc.lanes[l-1] }

// LaneSummer is an optional Model refinement: models whose layers can
// compute the pre-activation sums of several lane vectors in one sweep
// over the layer's weights (the multi-lane kernels of tensor). Each
// lane must be bit-identical to a LayerSums call with the same input.
// The fault engines reach it through AsDAG's layered view
// (LevelSumsLanesModel) and fall back to per-lane LayerSums for models
// that do not implement it.
type LaneSummer interface {
	// LayerSumsLanes computes dsts[k] = s^{(l)}(ys[k]) for every lane k,
	// including biases. len(dsts) == len(ys); lanes may share an input
	// vector.
	LayerSumsLanes(l int, dsts, ys [][]float64)
}

// LayerSumsLanes computes every lane's pre-activation sums of layer l
// in one sweep over W^{(l)} (the matrix streams from L2 once per batch
// of lanes instead of once per lane).
func (n *Network) LayerSumsLanes(l int, dsts, ys [][]float64) {
	n.Hidden[l-1].MulVecLanesAddTo(dsts, ys, n.bias(l-1))
}

// layerSumsLanes dispatches to m's multi-lane kernel when it has one
// and falls back to per-lane LayerSums otherwise (bit-identical either
// way).
func layerSumsLanes(m Model, l int, dsts, ys [][]float64) {
	if ls, ok := m.(LaneSummer); ok {
		ls.LayerSumsLanes(l, dsts, ys)
		return
	}
	for k := range ys {
		m.LayerSums(l, dsts[k], ys[k], nil)
	}
}

// LevelLaneSummer is the DAGModel analogue of LaneSummer: models whose
// levels can compute several lanes' pre-activation sums in one sweep
// over the level's edge list, each lane reading its own per-level
// source array (srcs[k][v] holds lane k's outputs of level v, srcs[k][0]
// the input). Each lane must be bit-identical to a LevelSums call with
// no skip rows over the same sources.
type LevelLaneSummer interface {
	LevelSumsLanes(l int, dsts [][]float64, srcs [][][]float64)
}

// LevelSumsLanesModel dispatches to m's multi-lane level kernel when it
// has one and falls back to per-lane LevelSums otherwise (bit-identical
// either way). ys is caller-owned scratch with room for len(srcs) lanes:
// a layered view (AsDAG) points ys[k] at lane k's level l-1 and hands it
// to the model's layer lane kernel, so the call allocates nothing.
func LevelSumsLanesModel(m DAGModel, l int, dsts [][]float64, srcs [][][]float64, ys [][]float64) {
	switch v := m.(type) {
	case *layered:
		ys = ys[:len(srcs)]
		for k, s := range srcs {
			ys[k] = s[l-1]
		}
		layerSumsLanes(v.Model, l, dsts, ys)
	case LevelLaneSummer:
		v.LevelSumsLanes(l, dsts, srcs)
	default:
		for k := range srcs {
			m.LevelSums(l, dsts[k], srcs[k], nil)
		}
	}
}
