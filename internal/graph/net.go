// Package graph implements arbitrary-topology feed-forward models: a
// Net groups neurons into topological levels but lets a neuron read
// from ANY earlier level (skip connections), with per-edge weights
// stored in compressed sparse rows. Strictly layered dense and
// convolutional nets become special cases of this wiring; a graph whose
// every level reads only the preceding one lowers to a dense nn.Network
// (Lower) that stays the bit-identical test oracle.
//
// # Memory model
//
// The layered engine keeps two rolling vectors alive; a DAG cannot,
// because a later level may read any earlier one. The graph engine
// therefore schedules levels topologically and keeps every level's
// output resident for the duration of one forward pass — O(Σ N_l) live
// floats (see nn.forwardDAG). Within a level, each node sums its
// in-edges over the virtual concatenation of its level's source levels,
// replaying the dense kernel's four-accumulator order (tensor.Dot) on
// that concatenation: edge columns below concatWidth&^3 feed
// accumulator col&3, the tail feeds accumulator 0, and the bias joins
// after the reduction. Absent edges contribute exact zeros in the dense
// oracle, so skipping them never changes an accumulator (the same
// +0/-0 argument tensor.ConvAcc relies on) and graph-native evaluation
// is bit-identical to the lowered network.
//
// # Accumulator-split view
//
// Compile stores each level a second time as a tensor.CSR split view:
// every node's edges are partitioned into four runs, one per
// accumulator, keeping their ascending column order inside each run
// (tail edges go last in run 0, since their columns are the largest).
// A kernel sums run a into accumulator a with no per-edge branch, and
// each accumulator still sees exactly Dot's additions in Dot's order. A
// level reading a single source level keeps no per-edge level array,
// and the multi-lane kernels read that level once per group of four
// lanes. The Level arrays stay as given: they back InEdge, Weight and
// the JSON codec.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/activation"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Level is one topological level of a Net in CSR form: node `to` owns
// edges Ptr[to]..Ptr[to+1], and edge e reads node SrcIdx[e] of level
// SrcLevel[e] with weight W[e]. A node's edges must be sorted strictly
// ascending by (SrcLevel, SrcIdx) — the order the kernels accumulate
// in. Bias is optional (nil = no biases on this level).
type Level struct {
	N        int       `json:"n"`
	Ptr      []int     `json:"ptr"`
	SrcLevel []int     `json:"src_level"`
	SrcIdx   []int     `json:"src_idx"`
	W        []float64 `json:"w"`
	Bias     []float64 `json:"bias,omitempty"`
}

// Edges returns the number of edges into the level.
func (lv *Level) Edges() int { return len(lv.W) }

// Net is a feed-forward DAG with L hidden levels and one linear output
// node. Level 0 is the input (InputDim nodes), levels 1..L are hidden
// (squashed by Act), and Output is level L+1 (exactly one node, no
// activation). A Net must not be mutated after first use: derived
// metadata (source-level sets, concatenation columns, per-level weight
// maxima) is compiled lazily and cached.
type Net struct {
	InputDim int
	Act      activation.Func
	Levels   []*Level
	Output   *Level

	once   sync.Once
	meta   []levelMeta // meta[l-1] for level l = 1..L+1
	outMax [][]float64 // outMax[l-1][i]: max |w| over edges leaving node (l, i)
	// readPtr[l-1] and readers[l-1] are the out-adjacency of level l
	// (1..L) in CSR form: node i of level l is read by the nodes
	// readers[l-1][readPtr[l-1][i]:readPtr[l-1][i+1]].
	readPtr    [][]int
	readers    [][]nn.NodeRef
	compileErr error
}

// levelMeta is the compiled per-level evaluation metadata.
type levelMeta struct {
	srcLevels []int // sorted distinct source levels
	maxW      float64
	prevOnly  bool        // srcLevels ⊆ {l-1}: LayerSums/OutputSum are valid
	csr       *tensor.CSR // accumulator-split view of the level's edges
}

// level returns level l's CSR block (1 <= l <= L+1).
func (n *Net) level(l int) *Level {
	if l == len(n.Levels)+1 {
		return n.Output
	}
	return n.Levels[l-1]
}

// width returns the node count of level v (0 <= v <= L+1).
func (n *Net) width(v int) int {
	switch {
	case v == 0:
		return n.InputDim
	case v <= len(n.Levels):
		return n.Levels[v-1].N
	default:
		return 1
	}
}

// compile builds the per-level metadata once; subsequent calls are free.
func (n *Net) compile() error {
	n.once.Do(func() { n.compileErr = n.doCompile() })
	return n.compileErr
}

// mustCompile is compile for methods without an error return (the Model
// kernels); construction and codec paths surface the error via Validate.
func (n *Net) mustCompile() {
	if err := n.compile(); err != nil {
		panic("graph: " + err.Error())
	}
}

func (n *Net) doCompile() error {
	if n.InputDim <= 0 {
		return fmt.Errorf("graph: input dimension %d", n.InputDim)
	}
	if n.Act == nil {
		return fmt.Errorf("graph: nil activation")
	}
	if len(n.Levels) == 0 {
		return fmt.Errorf("graph: no hidden levels")
	}
	if n.Output == nil {
		return fmt.Errorf("graph: nil output level")
	}
	if n.Output.N != 1 {
		return fmt.Errorf("graph: output level has %d nodes, want 1", n.Output.N)
	}
	L := len(n.Levels)
	for l := 1; l <= L; l++ {
		if n.Levels[l-1] == nil {
			return fmt.Errorf("graph: level %d is nil", l)
		}
		if n.Levels[l-1].N <= 0 {
			return fmt.Errorf("graph: level %d has %d nodes", l, n.Levels[l-1].N)
		}
	}
	n.meta = make([]levelMeta, L+1)
	n.outMax = make([][]float64, L)
	for l := 1; l <= L; l++ {
		n.outMax[l-1] = make([]float64, n.Levels[l-1].N)
	}
	for l := 1; l <= L+1; l++ {
		if err := n.compileLevel(l); err != nil {
			return err
		}
	}
	n.compileReaders()
	return nil
}

// compileReaders builds the out-adjacency of the hidden levels by
// transposing every level's in-edges, the output node's included.
// Walking readers in ascending (level, row) order and appending keeps
// each node's list sorted.
func (n *Net) compileReaders() {
	L := len(n.Levels)
	n.readPtr = make([][]int, L)
	n.readers = make([][]nn.NodeRef, L)
	for v := 1; v <= L; v++ {
		n.readPtr[v-1] = make([]int, n.width(v)+1)
	}
	for l := 1; l <= L+1; l++ {
		lv := n.level(l)
		for e, sl := range lv.SrcLevel {
			if sl >= 1 {
				n.readPtr[sl-1][lv.SrcIdx[e]+1]++
			}
		}
	}
	next := make([][]int, L)
	for v := 1; v <= L; v++ {
		ptr := n.readPtr[v-1]
		for i := 1; i < len(ptr); i++ {
			ptr[i] += ptr[i-1]
		}
		n.readers[v-1] = make([]nn.NodeRef, ptr[len(ptr)-1])
		next[v-1] = append([]int(nil), ptr[:len(ptr)-1]...)
	}
	for l := 1; l <= L+1; l++ {
		lv := n.level(l)
		for to := 0; to < lv.N; to++ {
			for e := lv.Ptr[to]; e < lv.Ptr[to+1]; e++ {
				sl, si := lv.SrcLevel[e], lv.SrcIdx[e]
				if sl < 1 {
					continue
				}
				n.readers[sl-1][next[sl-1][si]] = nn.NodeRef{Level: int32(l), Index: int32(to)}
				next[sl-1][si]++
			}
		}
	}
}

func (n *Net) compileLevel(l int) error {
	lv := n.level(l)
	m := &n.meta[l-1]
	if len(lv.Ptr) != lv.N+1 || lv.Ptr[0] != 0 {
		return fmt.Errorf("graph: level %d has malformed row pointers", l)
	}
	ne := lv.Ptr[lv.N]
	if len(lv.SrcLevel) != ne || len(lv.SrcIdx) != ne || len(lv.W) != ne {
		return fmt.Errorf("graph: level %d edge arrays disagree with Ptr[N]=%d", l, ne)
	}
	if lv.Bias != nil && len(lv.Bias) != lv.N {
		return fmt.Errorf("graph: level %d has %d biases for %d nodes", l, len(lv.Bias), lv.N)
	}
	for _, b := range lv.Bias {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("graph: level %d has non-finite bias", l)
		}
	}
	seen := make([]bool, l) // source levels present
	for to := 0; to < lv.N; to++ {
		if lv.Ptr[to] > lv.Ptr[to+1] {
			return fmt.Errorf("graph: level %d has decreasing row pointers at node %d", l, to)
		}
		prevL, prevI := -1, -1
		for e := lv.Ptr[to]; e < lv.Ptr[to+1]; e++ {
			sl, si := lv.SrcLevel[e], lv.SrcIdx[e]
			if sl < 0 || sl >= l {
				return fmt.Errorf("graph: level %d node %d reads level %d (want 0..%d)", l, to, sl, l-1)
			}
			if si < 0 || si >= n.width(sl) {
				return fmt.Errorf("graph: level %d node %d reads node %d of level %d (width %d)", l, to, si, sl, n.width(sl))
			}
			if sl < prevL || (sl == prevL && si <= prevI) {
				return fmt.Errorf("graph: level %d node %d edges not sorted ascending by (level, index)", l, to)
			}
			if math.IsNaN(lv.W[e]) || math.IsInf(lv.W[e], 0) {
				return fmt.Errorf("graph: level %d node %d has non-finite weight", l, to)
			}
			prevL, prevI = sl, si
			seen[sl] = true
			if a := math.Abs(lv.W[e]); a > m.maxW {
				m.maxW = a
			}
			if sl >= 1 {
				if a := math.Abs(lv.W[e]); a > n.outMax[sl-1][si] {
					n.outMax[sl-1][si] = a
				}
			}
		}
	}
	m.srcLevels = make([]int, 0, 2)
	for v := 0; v < l; v++ {
		if seen[v] {
			m.srcLevels = append(m.srcLevels, v)
		}
	}
	off := make([]int, l) // concat offset of each source level
	width := 0
	for _, v := range m.srcLevels {
		off[v] = width
		width += n.width(v)
	}
	m.prevOnly = len(m.srcLevels) == 0 || (len(m.srcLevels) == 1 && m.srcLevels[0] == l-1)
	csr, err := tensor.NewCSR(lv.Ptr, lv.SrcLevel, lv.SrcIdx, lv.W, off, width)
	if err != nil {
		return fmt.Errorf("graph: level %d: %w", l, err)
	}
	m.csr = csr
	return nil
}

// Validate checks structural consistency (CSR invariants, edge ranges
// and ordering, finite weights) and compiles the evaluation metadata.
func (n *Net) Validate() error { return n.compile() }

// NumLayers returns L, the number of hidden levels.
func (n *Net) NumLayers() int { return len(n.Levels) }

// Width returns the node count of level l (Model convention: 0 is the
// input, L+1 the output node).
func (n *Net) Width(l int) int {
	if l < 0 || l > len(n.Levels)+1 {
		panic(fmt.Sprintf("graph: Width(%d) out of range", l))
	}
	return n.width(l)
}

// Activation returns ϕ.
func (n *Net) Activation() activation.Func { return n.Act }

// MaxWeight returns w_m^{(l)} over the level's edges, biases excluded
// per the Model contract.
func (n *Net) MaxWeight(l int) float64 {
	n.mustCompile()
	return n.meta[l-1].maxW
}

// Weight returns the weight of the edge from node `from` of level l-1
// into node `to` of level l, or 0 when no such edge exists. Skip edges
// (source level < l-1) are NOT addressable here — engines evaluating
// graphs use the DAGModel ordinal addressing (InEdge) instead.
func (n *Net) Weight(l, to, from int) float64 {
	lv := n.level(l)
	if l == len(n.Levels)+1 {
		to = 0
	}
	lo, hi := lv.Ptr[to], lv.Ptr[to+1]
	// Edges are sorted by (SrcLevel, SrcIdx); find (l-1, from).
	i := lo + sort.Search(hi-lo, func(k int) bool {
		e := lo + k
		return lv.SrcLevel[e] > l-1 || (lv.SrcLevel[e] == l-1 && lv.SrcIdx[e] >= from)
	})
	if i < hi && lv.SrcLevel[i] == l-1 && lv.SrcIdx[i] == from {
		return lv.W[i]
	}
	return 0
}

// SrcLevels returns the sorted distinct source levels of level l.
func (n *Net) SrcLevels(l int) []int {
	n.mustCompile()
	return n.meta[l-1].srcLevels
}

// FanIn returns the in-degree of node `to` of level l.
func (n *Net) FanIn(l, to int) int {
	lv := n.level(l)
	if l == len(n.Levels)+1 {
		to = 0
	}
	return lv.Ptr[to+1] - lv.Ptr[to]
}

// InEdge returns the k-th in-edge of node `to` of level l in ascending
// (srcLevel, srcIdx) order.
func (n *Net) InEdge(l, to, k int) (srcLevel, srcIdx int, w float64) {
	lv := n.level(l)
	if l == len(n.Levels)+1 {
		to = 0
	}
	e := lv.Ptr[to] + k
	return lv.SrcLevel[e], lv.SrcIdx[e], lv.W[e]
}

// LevelSums computes level l's pre-activation sums into dst from every
// level's outputs (ys[v] holds level v, ys[0] the input). skip follows
// the Model contract's skip-rows convention.
func (n *Net) LevelSums(l int, dst []float64, ys [][]float64, skip []int) {
	n.mustCompile()
	lv := n.Levels[l-1]
	m := &n.meta[l-1]
	si := 0
	for to := 0; to < lv.N; to++ {
		if si < len(skip) && skip[si] == to {
			si++
			continue
		}
		s := m.csr.Row(to, ys)
		if lv.Bias != nil {
			s += lv.Bias[to]
		}
		dst[to] = s
	}
}

// Readers returns the nodes reading node i of level v (1 <= v <= L) in
// ascending (level, row) order, the output node as (L+1, 0): the
// nn.RowDAG out-adjacency, skip edges included.
func (n *Net) Readers(v, i int) []nn.NodeRef {
	n.mustCompile()
	ptr := n.readPtr[v-1]
	return n.readers[v-1][ptr[i]:ptr[i+1]]
}

// LevelRowSums computes level l's pre-activation sums at the listed
// rows only — each row the same csr.Row call plus bias as LevelSums,
// so every written entry is bit-identical to it.
func (n *Net) LevelRowSums(l int, dst []float64, ys [][]float64, rows []int) {
	n.mustCompile()
	lv := n.Levels[l-1]
	csr := n.meta[l-1].csr
	for _, to := range rows {
		s := csr.Row(to, ys)
		if lv.Bias != nil {
			s += lv.Bias[to]
		}
		dst[to] = s
	}
}

// LevelSumsLanes computes level l's pre-activation sums for every lane
// k into dsts[k] from that lane's per-level outputs srcs[k] (srcs[k][v]
// holds level v, srcs[k][0] the input), biases included — the
// multi-lane nn.LevelLaneSummer kernel. Each node's edge runs stream
// from memory once per group of four lanes instead of once per lane,
// and every lane is bit-identical to a LevelSums call over the same
// sources.
func (n *Net) LevelSumsLanes(l int, dsts [][]float64, srcs [][][]float64) {
	n.mustCompile()
	lv := n.Levels[l-1]
	n.meta[l-1].csr.GatherLanesAddTo(dsts, srcs, lv.Bias)
}

// LayerSums is the layered Model kernel; it is only valid for levels
// that read nothing but level l-1 and panics otherwise — engines that
// support arbitrary topology use LevelSums via the DAGModel interface.
func (n *Net) LayerSums(l int, dst, y []float64, skip []int) {
	n.mustCompile()
	lv := n.Levels[l-1]
	m := &n.meta[l-1]
	if !m.prevOnly {
		panic(fmt.Sprintf("graph: LayerSums on level %d, which reads levels %v — evaluate via DAGModel.LevelSums", l, m.srcLevels))
	}
	si := 0
	for to := 0; to < lv.N; to++ {
		if si < len(skip) && skip[si] == to {
			si++
			continue
		}
		s := m.csr.RowFlat(to, y)
		if lv.Bias != nil {
			s += lv.Bias[to]
		}
		dst[to] = s
	}
}

// outputBias returns the output node's bias (0 when absent; the output
// sum always adds it, matching the dense engine's OutputBias).
func (n *Net) outputBias() float64 {
	if n.Output.Bias != nil {
		return n.Output.Bias[0]
	}
	return 0
}

// OutputSum evaluates the linear output node on the last hidden level's
// outputs; valid only when the output reads nothing but level L.
func (n *Net) OutputSum(y []float64) float64 {
	n.mustCompile()
	L := len(n.Levels)
	m := &n.meta[L]
	if !m.prevOnly {
		panic(fmt.Sprintf("graph: OutputSum on an output reading levels %v — evaluate via DAGModel.OutputSumLevels", m.srcLevels))
	}
	return m.csr.RowFlat(0, y) + n.outputBias()
}

// OutputSumLevels evaluates the linear output node over every level's
// outputs.
func (n *Net) OutputSumLevels(ys [][]float64) float64 {
	n.mustCompile()
	return n.meta[len(n.Levels)].csr.Row(0, ys) + n.outputBias()
}

// OutgoingWeight scores node `idx` of level l by its largest outgoing
// absolute weight over ALL out-edges — the next level, skip edges and
// the output node alike (fault.OutgoingScorer). For layer-expressible
// graphs this equals the generic next-layer scan, so adversarial plans
// agree with the lowered dense oracle's; for skip graphs it is the
// strictly better adversary.
func (n *Net) OutgoingWeight(l, idx int) float64 {
	n.mustCompile()
	return n.outMax[l-1][idx]
}
