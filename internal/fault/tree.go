package fault

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// This file implements the tree-structured exhaustive worst-case
// engine. A flat enumeration pays a full damaged sweep per
// configuration; here the configuration space is walked as a DFS whose
// depth is the layer index, with the DEEPEST faulty layer varying
// fastest, so siblings at depth d share the damaged prefix of layers
// < d and recompute only layers >= d. Leaves are further collapsed: the
// combinations of the deepest faulty layer differ only in which rows of
// one shared base vector are overridden, so a whole leaf group costs
// one lane-batched level sweep plus an O(f·N) override/output-sum per
// configuration.
//
// There is one walk for every model. It runs level-scheduled on the
// model's nn.AsDAG view — a layered model is the DAG whose every level
// reads only the one before it:
//
//   - Each walker keeps per-input per-level output pointers
//     (wcWalker.lvls): levels off the static frontier alias the clean
//     trace forever, damaged levels point at the walker's buffers.
//     Recomputing depths >= firstDiff in ascending level order keeps
//     every pointer authoritative, because a level only reads levels
//     before it — the same invariant the compiled engine relies on.
//   - A depth with faults whose sources are all clean takes the
//     divergence-copy fast path (copy the clean outputs, apply the
//     overrides); otherwise the level's sums run through the level lane
//     kernel across all P inputs at once.
//   - Pruning prices subtrees with core.DAGSubtreeBounder's per-node
//     coefficients over per-node measured deviations. Ties are never
//     pruned, so results — including first-attaining tie-breaks — are
//     bit-identical to the unpruned walk.
//
// The arithmetic of every materialised level replays CompiledPlan's
// scalar sweep exactly (divergence copy, level sums + activation,
// overrides from the CLEAN nominal, ascending levels), so recorded
// errors are bit-identical to ErrorOnTrace on the same configuration.
//
// Enumeration order ("tree order"): configurations are indexed by the
// mixed-radix number whose most significant digit is layer 1's
// combination index and whose least significant digit is the deepest
// faulty layer's — flat = ((c_1·m_2 + c_2)·m_3 + ...)·m_dl + c_dl with
// m_l = C(N_l, f_l). Within-layer combinations are lexicographic
// (Combinations). All first-attaining tie-breaks are in this order.

// pruneSlack widens every bound-vs-floor comparison: a subtree is
// pruned only when bound·pruneSlack is still strictly below the floor.
// The soundness argument (core.DAGSubtreeBounder) is real-arithmetic, but
// both the bound and the measured errors are computed in floats whose
// accumulated relative rounding is ~n·2⁻⁵³ for n arithmetic steps —
// without slack, a configuration whose measured error lands one ulp
// ABOVE its real-valued bound (an exact tie, say) could be pruned. A
// 1e-9 relative guard covers rounding chains millions of operations
// deep while costing essentially no pruning power.
const pruneSlack = 1 + 1e-9

// WorstCaseOptions configures a WorstCase search.
type WorstCaseOptions struct {
	// Injector supplies the faulty neurons' broadcast values; nil means
	// Crash{}. With Prune set it MUST be deterministic (NeuronValue is
	// consulted while building the pruning tables and must return the
	// same value at evaluation time).
	Injector Injector
	// Prune enables sound branch-and-bound pruning: a subtree is
	// skipped only when its core.DAGSubtreeBounder bound is STRICTLY below
	// the incumbent worst error, so the returned result — including
	// first-attaining tie-breaks — is provably identical to the
	// unpruned walk; only Visited/Pruned change.
	Prune bool
	// Sequential forces a single-walker in-order walk. Results are
	// deterministic either way; Sequential additionally makes the
	// Visited/Pruned split deterministic (parallel shards race on the
	// shared pruning floor).
	Sequential bool
	// MaxConfigs refuses searches with more configurations (<= 0 means
	// no refusal) — the refusal is the paper's point.
	MaxConfigs int64
	// Pool runs parallel searches; nil uses a transient pool.
	Pool *parallel.Pool
}

// SearchState accumulates a (possibly sharded, possibly resumed)
// search. The zero value is NOT ready — use NewSearchState (WorstFlat
// must start at -1). Seeding WorstError above zero acts as an exclusive
// floor: only strictly larger errors are recorded.
type SearchState struct {
	// WorstError is the largest |Fneu - Ffail| recorded so far.
	WorstError float64 `json:"worst_error"`
	// WorstFlat is the tree-order index of the first configuration
	// attaining WorstError, or -1 if none was recorded.
	WorstFlat int64 `json:"worst_flat"`
	// WorstPlan is that configuration's fault plan.
	WorstPlan []NeuronFault `json:"worst_plan,omitempty"`
	// Visited counts configurations actually evaluated; Pruned counts
	// configurations skipped by the bound. Visited + Pruned equals the
	// number of tree positions processed.
	Visited int64 `json:"visited"`
	Pruned  int64 `json:"pruned"`
}

// NewSearchState returns an empty state.
func NewSearchState() SearchState { return SearchState{WorstFlat: -1} }

// Merge folds a LATER shard o into st (st covers earlier tree
// positions): counts add; o's incumbent displaces st's only if strictly
// worse-case, or equal with a smaller tree index — the deterministic
// flat-order reduction that keeps sharded searches first-attaining.
func (st *SearchState) Merge(o SearchState) {
	st.Visited += o.Visited
	st.Pruned += o.Pruned
	if o.WorstFlat < 0 {
		return
	}
	if o.WorstError > st.WorstError ||
		(o.WorstError == st.WorstError && (st.WorstFlat < 0 || o.WorstFlat < st.WorstFlat)) {
		st.WorstError = o.WorstError
		st.WorstFlat = o.WorstFlat
		st.WorstPlan = o.WorstPlan
	}
}

// WorstCase is a prepared tree-structured exhaustive search. Safe for
// concurrent RunRange/Search calls (each walker owns its buffers; the
// pruning floor is shared atomically).
type WorstCase struct {
	// m is the model's level view (nn.AsDAG), built once.
	m       nn.DAGModel
	inj     Injector
	isCrash bool
	prune   bool
	seq     bool
	pool    *parallel.Pool

	L     int
	lastF int // deepest 1-based layer with faults; 0 when the plan is empty

	combos      [][][]int // combos[l-1]: layer l's combinations (l <= lastF)
	counts      []int64   // counts[l-1] = len(combos[l-1])
	groupsUnder []int64   // groups under one depth-d subtree (index d, 1..lastF-1)
	leaves      int64     // configurations per leaf group = counts[lastF-1]
	total       int64

	inputs [][]float64
	traces []*nn.Trace

	// Static frontier: dirtyLvl[l] reports whether level l can differ
	// from the clean trace under the FULL perLayer pattern (own faults
	// or any damaged source level); srcDirty[l] the source half alone.
	// Every configuration of the search damages exactly the layers with
	// perLayer > 0, so the frontier — and with it every alias/copy/
	// recompute decision — is one fixed bitmask, identical to the
	// compiled engine's per-plan frontier for each leaf.
	dirtyLvl []bool
	srcDirty []bool

	// Pruning tables (Prune only): nb holds the per-node coefficients;
	// tails[d][x] prices the free layers below depth d on input x and
	// topfLeaf[x] bounds the deepest layer's own combination deviations,
	// both already weighted by nb's Amp.
	nb       *core.DAGSubtreeBounder
	tails    [][]float64
	topfLeaf []float64

	floorBits atomic.Uint64 // math.Float64bits of the pruning floor (>= 0)
	walkers   sync.Pool
}

// wcWalker is one DFS walker: the damaged level buffers plus the digits
// it currently embodies.
type wcWalker struct {
	// sc holds, one lane per input, the damaged outputs of the levels
	// the walk recomputes.
	sc     nn.BatchScratch
	cur    []int64 // cur[d]: combination index materialised at depth d (-1 = invalid)
	digits []int64

	saved     []float64 // override save/restore buffer for leaf rows
	baseDelta []float64 // Amp-weighted deviation of the leaf group's base
	baseGroup int64     // leaf-group whose base occupies sc.Layer(lastF); -1 = none

	// lvls[x][v] points at input x's authoritative level-v outputs — the
	// clean trace for levels off the frontier, the walker's buffers for
	// damaged ones (levels the search never dirties keep their trace
	// alias forever). ys is the level lane kernel's per-input scratch
	// (nn.LevelSumsLanesModel); nodeDeltas[d][x] holds per-node
	// |damaged - clean| at damaged depths (prune only).
	lvls       [][][]float64
	ys         [][]float64
	nodeDeltas [][][]float64
}

// NewWorstCase prepares a search for perLayer[l-1] faulty neurons per
// layer l over the given inputs. Unlike the historical panicking paths
// it validates and returns errors — searches are reachable from serve.
func NewWorstCase(m nn.Model, perLayer []int, inputs [][]float64, opts WorstCaseOptions) (*WorstCase, error) {
	L := m.NumLayers()
	if len(perLayer) != L {
		return nil, fmt.Errorf("fault: perLayer has %d entries for %d layers", len(perLayer), L)
	}
	widths := make([]int, L)
	for l := 1; l <= L; l++ {
		widths[l-1] = m.Width(l)
	}
	for l, f := range perLayer {
		if f < 0 || f > widths[l] {
			return nil, fmt.Errorf("fault: f_%d = %d outside [0, N_%d=%d]", l+1, f, l+1, widths[l])
		}
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("fault: worst-case search over no inputs")
	}
	for i, x := range inputs {
		if len(x) != m.Width(0) {
			return nil, fmt.Errorf("fault: input %d has %d entries, want %d", i, len(x), m.Width(0))
		}
	}
	total, err := CountConfigurations(widths, perLayer)
	if err != nil {
		return nil, err
	}
	if total == math.MaxInt64 {
		return nil, fmt.Errorf("fault: configuration count overflows int64")
	}
	if opts.MaxConfigs > 0 && total > opts.MaxConfigs {
		return nil, fmt.Errorf("fault: %d configurations exceed limit %d", total, opts.MaxConfigs)
	}
	inj := opts.Injector
	if inj == nil {
		inj = Crash{}
	}
	_, isCrash := inj.(Crash)

	dm := nn.AsDAG(m)
	w := &WorstCase{
		m:       dm,
		inj:     inj,
		isCrash: isCrash,
		prune:   opts.Prune,
		seq:     opts.Sequential,
		pool:    opts.Pool,
		L:       L,
		inputs:  inputs,
		total:   total,
	}
	for l := L; l >= 1; l-- {
		if perLayer[l-1] > 0 {
			w.lastF = l
			break
		}
	}
	w.traces = CleanTraces(m, inputs)
	w.dirtyLvl = make([]bool, L+1)
	w.srcDirty = make([]bool, L+1)
	for l := 1; l <= L; l++ {
		w.dirtyLvl[l] = perLayer[l-1] > 0
	}
	markFrontier(dm, w.dirtyLvl, w.srcDirty)

	if w.lastF > 0 {
		dl := w.lastF
		w.combos = make([][][]int, dl)
		w.counts = make([]int64, dl)
		for l := 1; l <= dl; l++ {
			var cs [][]int
			Combinations(widths[l-1], perLayer[l-1], func(idx []int) {
				cs = append(cs, append([]int(nil), idx...))
			})
			w.combos[l-1] = cs
			w.counts[l-1] = int64(len(cs))
		}
		w.leaves = w.counts[dl-1]
		w.groupsUnder = make([]int64, dl)
		if dl >= 1 {
			w.groupsUnder[dl-1] = 1
			for d := dl - 2; d >= 1; d-- {
				w.groupsUnder[d] = w.groupsUnder[d+1] * w.counts[d]
			}
		}
	}

	if w.prune && w.lastF > 0 {
		if err := w.buildPruneTables(perLayer); err != nil {
			return nil, err
		}
	}

	P := len(inputs)
	dl := w.lastF
	w.walkers.New = func() any {
		wk := &wcWalker{baseGroup: -1}
		wk.sc.Ensure(dm, P)
		wk.lvls = make([][][]float64, P)
		for x, tr := range w.traces {
			ys := make([][]float64, L+1)
			ys[0] = tr.Input
			for v := 1; v <= L; v++ {
				ys[v] = tr.Outputs[v-1]
			}
			wk.lvls[x] = ys
		}
		wk.ys = make([][]float64, P)
		if dl > 0 {
			wk.cur = make([]int64, dl)
			wk.digits = make([]int64, dl)
			for d := range wk.cur {
				wk.cur[d] = -1
			}
			wk.saved = make([]float64, perLayer[dl-1])
			if w.prune {
				wk.nodeDeltas = make([][][]float64, dl)
				for d := 1; d < dl; d++ {
					if !w.dirtyLvl[d] {
						continue // stays clean: deviations identically zero
					}
					nd := make([][]float64, P)
					for x := range nd {
						nd[x] = make([]float64, m.Width(d))
					}
					wk.nodeDeltas[d] = nd
				}
				wk.baseDelta = make([]float64, P)
			}
		}
		return wk
	}
	return w, nil
}

// buildPruneTables prices every free suffix over per-node coefficients:
// per input x and layer l, topf_l(x) is the sum of the f_l largest
// Amp-weighted exact per-neuron deviations amp_i·|inj(clean_i) -
// clean_i| (exact because injectors always receive the CLEAN nominal,
// see core.DAGSubtreeBounder), and tails[d][x] sums them over the
// layers > d. The Amp weighting happens BEFORE the worst-f selection,
// so tails and topfLeaf need no further propagation factor.
func (w *WorstCase) buildPruneTables(perLayer []int) error {
	b, err := core.NewDAGSubtreeBounder(w.m, perLayer)
	if err != nil {
		return err
	}
	w.nb = b
	P := len(w.traces)
	dl := w.lastF
	topf := make([][]float64, w.L) // topf[l-1][x]; nil for fault-free layers
	var devs []float64
	for l := 1; l <= w.L; l++ {
		f := perLayer[l-1]
		if f == 0 {
			continue
		}
		width := w.m.Width(l)
		if cap(devs) < width {
			devs = make([]float64, width)
		}
		devs = devs[:width]
		amp := b.Amp(l)
		topf[l-1] = make([]float64, P)
		for x, tr := range w.traces {
			clean := tr.Outputs[l-1]
			for i := 0; i < width; i++ {
				v := 0.0
				if !w.isCrash {
					v = w.inj.NeuronValue(NeuronFault{Layer: l, Index: i}, clean[i])
				}
				devs[i] = amp[i] * math.Abs(v-clean[i])
			}
			sort.Float64s(devs)
			s := 0.0
			for i := width - f; i < width; i++ {
				s += devs[i]
			}
			topf[l-1][x] = s
		}
	}
	w.tails = make([][]float64, dl+1)
	for d := 0; d <= dl; d++ {
		w.tails[d] = make([]float64, P)
		for x := 0; x < P; x++ {
			t := 0.0
			for l := d + 1; l <= w.L; l++ {
				if topf[l-1] != nil {
					t += topf[l-1][x]
				}
			}
			w.tails[d][x] = t
		}
	}
	w.topfLeaf = topf[dl-1]
	return nil
}

// Total returns the number of configurations (tree positions).
func (w *WorstCase) Total() int64 { return w.total }

// PlanAt reconstructs the configuration at a tree-order index.
func (w *WorstCase) PlanAt(flat int64) Plan {
	if w.lastF == 0 {
		return Plan{}
	}
	idx := make([]int64, w.lastF+1)
	rem := flat
	for d := w.lastF; d >= 1; d-- {
		idx[d] = rem % w.counts[d-1]
		rem /= w.counts[d-1]
	}
	var nf []NeuronFault
	for d := 1; d <= w.lastF; d++ {
		for _, i := range w.combos[d-1][idx[d]] {
			nf = append(nf, NeuronFault{Layer: d, Index: i})
		}
	}
	return Plan{Neurons: nf}
}

// floor returns the current exclusive pruning floor.
func (w *WorstCase) floor(st *SearchState) float64 {
	f := math.Float64frombits(w.floorBits.Load())
	if st.WorstError > f {
		f = st.WorstError
	}
	return f
}

// raiseFloor lifts the shared pruning floor to at least v (v >= 0, so
// the float64-bits ordering agrees with the numeric one).
func (w *WorstCase) raiseFloor(v float64) {
	if !(v > 0) {
		return
	}
	bits := math.Float64bits(v)
	for {
		old := w.floorBits.Load()
		if old >= bits || w.floorBits.CompareAndSwap(old, bits) {
			return
		}
	}
}

// RunRange walks tree positions [lo, hi) with a single walker, folding
// into st (record iff strictly above st.WorstError — ascending order
// keeps the first-attaining configuration). It polls ctx between leaf
// groups and returns its error when cancelled.
func (w *WorstCase) RunRange(ctx context.Context, lo, hi int64, st *SearchState) error {
	if lo < 0 {
		lo = 0
	}
	if hi > w.total {
		hi = w.total
	}
	if lo >= hi {
		return ctx.Err()
	}
	if w.lastF == 0 {
		// A single, empty configuration: the damaged network is the
		// clean one, error 0, nothing to record.
		st.Visited += hi - lo
		return ctx.Err()
	}
	wk := w.walkers.Get().(*wcWalker)
	defer w.walkers.Put(wk)
	return w.walk(ctx, wk, lo, hi, st)
}

func (w *WorstCase) walk(ctx context.Context, wk *wcWalker, lo, hi int64, st *SearchState) error {
	dl := w.lastF
	spine := dl - 1
	pos := lo
	for pos < hi {
		if err := ctx.Err(); err != nil {
			return err
		}
		g := pos / w.leaves
		li := pos - g*w.leaves
		leafEnd := w.leaves
		if rem := hi - g*w.leaves; rem < leafEnd {
			leafEnd = rem
		}
		// Decode the spine digits (deepest fastest).
		rem := g
		for d := spine; d >= 1; d-- {
			wk.digits[d] = rem % w.counts[d-1]
			rem /= w.counts[d-1]
		}
		// Damaged-prefix sharing: depths whose digit is unchanged keep
		// their buffers; everything from the first changed depth down
		// is recomputed.
		firstDiff := 1
		for firstDiff <= spine && wk.cur[firstDiff] == wk.digits[firstDiff] {
			firstDiff++
		}
		if firstDiff <= spine {
			wk.baseGroup = -1
		}
		pruned := false
		for d := firstDiff; d <= spine; d++ {
			w.applyDepth(wk, d, wk.digits[d])
			wk.cur[d] = wk.digits[d]
			if w.prune && w.nodeBound(wk, d)*pruneSlack < w.floor(st) {
				// The bound dominates every leaf below this node, so
				// strictly-below-the-floor means no leaf here can beat
				// or tie the incumbent: fast-forward to the subtree's
				// end (clipped to the shard).
				span := w.groupsUnder[d]
				next := (g/span + 1) * span * w.leaves
				if next > hi {
					next = hi
				}
				st.Pruned += next - pos
				pos = next
				// Deeper buffers were not rebuilt under this prefix.
				for e := d + 1; e <= spine; e++ {
					wk.cur[e] = -1
				}
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		if wk.baseGroup != g {
			w.buildBase(wk)
			wk.baseGroup = g
		}
		if w.prune {
			if w.leafBound(wk)*pruneSlack < w.floor(st) {
				st.Pruned += leafEnd - li
				pos = g*w.leaves + leafEnd
				continue
			}
		}
		w.evalLeaves(wk, g, li, leafEnd, st)
		pos = g*w.leaves + leafEnd
	}
	return ctx.Err()
}

// applyDepth materialises depth d's damaged outputs for combination ci;
// shallower levels' pointers (wk.lvls) are authoritative.
func (w *WorstCase) applyDepth(wk *wcWalker, d int, ci int64) {
	if !w.dirtyLvl[d] {
		// No own faults and every source clean: the trace aliases set at
		// walker construction are authoritative, deviations are zero.
		return
	}
	combo := w.combos[d-1][ci]
	P := len(w.traces)
	dst := wk.sc.Layer(d)[:P]
	if !w.srcDirty[d] {
		// First divergent level: received sums are the clean ones, so
		// outputs are the trace's with the overrides applied (the
		// compiled engine's divergence-copy fast path).
		for x, tr := range w.traces {
			copy(dst[x], tr.Outputs[d-1])
		}
	} else {
		nn.LevelSumsLanesModel(w.m, d, dst, wk.lvls, wk.ys)
		act := w.m.Activation()
		for x := 0; x < P; x++ {
			activation.Eval(act, dst[x], dst[x])
		}
	}
	// Faulty neurons broadcast values derived from the CLEAN nominal —
	// the same convention as the compiled engines, and what makes the
	// pruning tables exact.
	if w.isCrash {
		for x := 0; x < P; x++ {
			row := dst[x]
			for _, idx := range combo {
				row[idx] = 0
			}
		}
	} else {
		for x, tr := range w.traces {
			row := dst[x]
			clean := tr.Outputs[d-1]
			for _, idx := range combo {
				row[idx] = w.inj.NeuronValue(NeuronFault{Layer: d, Index: idx}, clean[idx])
			}
		}
	}
	for x := 0; x < P; x++ {
		wk.lvls[x][d] = dst[x]
	}
	if w.prune {
		nd := wk.nodeDeltas[d]
		for x, tr := range w.traces {
			clean := tr.Outputs[d-1]
			row := dst[x]
			out := nd[x]
			for i := range row {
				out[i] = math.Abs(row[i] - clean[i])
			}
		}
	}
}

// nodeBound is the branch-and-bound price of the subtree rooted at depth
// d: every measured node's deviation times its free-suffix path
// coefficient, plus the pre-weighted free-layer tail, maximised over
// inputs.
func (w *WorstCase) nodeBound(wk *wcWalker, d int) float64 {
	maxB := math.Inf(-1)
	for x := range w.traces {
		b := w.measured(wk, d, d, x, w.tails[d][x])
		if b > maxB {
			maxB = b
		}
	}
	return maxB
}

// leafBound prices a whole leaf group: the measured prefix through the
// depth-dl coefficients, the deepest layer's base deviation and worst
// own combination already Amp-weighted (buildBase / buildPruneTables),
// plus the (empty) tail.
func (w *WorstCase) leafBound(wk *wcWalker) float64 {
	dl := w.lastF
	maxB := math.Inf(-1)
	for x := range w.traces {
		b := w.measured(wk, dl, dl-1, x, w.tails[dl][x]+wk.baseDelta[x]+w.topfLeaf[x])
		if b > maxB {
			maxB = b
		}
	}
	return maxB
}

// measured adds coef·δ over the damaged nodes of levels 1..upTo on
// input x to b, with the coefficients of a bound at depth d.
func (w *WorstCase) measured(wk *wcWalker, d, upTo, x int, b float64) float64 {
	for v := 1; v <= upTo; v++ {
		if wk.nodeDeltas[v] == nil {
			continue // clean level: deviations identically zero
		}
		nd := wk.nodeDeltas[v][x]
		for i, c := range w.nb.Coef(d, v) {
			b += c * nd[i]
		}
	}
	return b
}

// buildBase materialises the deepest faulty level's outputs under the
// current spine WITHOUT that level's own faults — the shared base every
// leaf of the group overrides in place. baseDelta is its Amp-weighted
// deviation from the clean trace.
func (w *WorstCase) buildBase(wk *wcWalker) {
	dl := w.lastF
	P := len(w.traces)
	base := wk.sc.Layer(dl)[:P]
	if !w.srcDirty[dl] {
		for x, tr := range w.traces {
			copy(base[x], tr.Outputs[dl-1])
			wk.lvls[x][dl] = base[x]
		}
		if w.prune {
			for x := range w.traces {
				wk.baseDelta[x] = 0
			}
		}
		return
	}
	nn.LevelSumsLanesModel(w.m, dl, base, wk.lvls, wk.ys)
	act := w.m.Activation()
	for x := 0; x < P; x++ {
		activation.Eval(act, base[x], base[x])
		wk.lvls[x][dl] = base[x]
	}
	if w.prune {
		amp := w.nb.Amp(dl)
		for x, tr := range w.traces {
			clean := tr.Outputs[dl-1]
			row := base[x]
			s := 0.0
			for i := range row {
				s += amp[i] * math.Abs(row[i]-clean[i])
			}
			wk.baseDelta[x] = s
		}
	}
}

// evalLeaves evaluates leaf configurations [li, leafEnd) of group g:
// each overrides its combination's rows of the shared base, propagates
// the dirty suffix levels, reads the output over the level pointers,
// and restores — no subtraction tricks, so the arithmetic is
// bit-identical to a full compiled evaluation of the same
// configuration.
func (w *WorstCase) evalLeaves(wk *wcWalker, g, li, leafEnd int64, st *SearchState) {
	dl := w.lastF
	base := wk.sc.Layer(dl)[:len(w.traces)]
	for ci := li; ci < leafEnd; ci++ {
		combo := w.combos[dl-1][ci]
		worst := 0.0
		for x, tr := range w.traces {
			row := base[x]
			if w.isCrash {
				for j, idx := range combo {
					wk.saved[j] = row[idx]
					row[idx] = 0
				}
			} else {
				clean := tr.Outputs[dl-1]
				for j, idx := range combo {
					wk.saved[j] = row[idx]
					row[idx] = w.inj.NeuronValue(NeuronFault{Layer: dl, Index: idx}, clean[idx])
				}
			}
			out := w.propagateSuffix(wk, x)
			for j, idx := range combo {
				row[idx] = wk.saved[j]
			}
			if e := math.Abs(tr.Output - out); e > worst {
				worst = e
			}
		}
		st.Visited++
		if worst > st.WorstError {
			st.WorstError = worst
			st.WorstFlat = g*w.leaves + ci
			st.WorstPlan = w.PlanAt(st.WorstFlat).Neurons
			w.raiseFloor(worst)
		}
	}
}

// propagateSuffix pushes one input's damaged state through the levels
// past the deepest faulty one: levels off the frontier keep their
// clean-trace aliases (zero cost, like the compiled engine), dirty ones
// recompute over the level pointers.
func (w *WorstCase) propagateSuffix(wk *wcWalker, x int) float64 {
	ys := wk.lvls[x]
	act := w.m.Activation()
	for l := w.lastF + 1; l <= w.L; l++ {
		if !w.dirtyLvl[l] {
			continue
		}
		dst := wk.sc.Layer(l)[x]
		w.m.LevelSums(l, dst, ys, nil)
		activation.Eval(act, dst, dst)
		ys[l] = dst
	}
	return w.m.OutputSumLevels(ys)
}

// Search processes tree positions [lo, hi) — sharded over the pool
// unless Sequential — and folds the outcome into st with the
// deterministic flat-order reduction. st.WorstError seeds the pruning
// floor (sound: a higher floor only prunes more, and recording is
// strict-greater either way).
func (w *WorstCase) Search(ctx context.Context, lo, hi int64, st *SearchState) error {
	if lo < 0 {
		lo = 0
	}
	if hi > w.total {
		hi = w.total
	}
	if lo >= hi {
		return ctx.Err()
	}
	w.raiseFloor(st.WorstError)
	if w.seq || w.lastF == 0 {
		return w.RunRange(ctx, lo, hi, st)
	}
	pool := w.pool
	if pool == nil {
		pool = parallel.NewPool(0)
		defer pool.Close()
	}
	n := hi - lo
	grain := n / int64(4*pool.Size())
	if grain < 1 {
		grain = 1
	}
	if w.leaves > 0 && w.groups() >= int64(4*pool.Size()) {
		// Align shards to whole leaf groups so sibling leaves stay with
		// their spine.
		grain = (grain + w.leaves - 1) / w.leaves * w.leaves
	}
	var mu sync.Mutex
	shards := make(map[int64]SearchState)
	err := pool.ForCtx64(ctx, n, grain, func(clo, chi int64) {
		local := NewSearchState()
		_ = w.RunRange(ctx, lo+clo, lo+chi, &local)
		mu.Lock()
		shards[clo] = local
		mu.Unlock()
	})
	// Deterministic flat-order reduction: merge shards by ascending
	// start position regardless of completion order.
	starts := make([]int64, 0, len(shards))
	for s := range shards {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, s := range starts {
		st.Merge(shards[s])
	}
	return err
}

func (w *WorstCase) groups() int64 {
	if w.leaves <= 0 {
		return 0
	}
	return w.total / w.leaves
}

// Run walks the whole tree and packages the result.
func (w *WorstCase) Run(ctx context.Context) (ExhaustiveResult, error) {
	st := NewSearchState()
	if err := w.Search(ctx, 0, w.total, &st); err != nil {
		return ExhaustiveResult{}, err
	}
	return w.Result(st), nil
}

// Result packages an accumulated state.
func (w *WorstCase) Result(st SearchState) ExhaustiveResult {
	return ExhaustiveResult{
		WorstError:     st.WorstError,
		WorstPlan:      Plan{Neurons: st.WorstPlan},
		Configurations: w.total,
		Visited:        st.Visited,
		Pruned:         st.Pruned,
	}
}

// ExhaustiveWorstCrash enumerates every choice of perLayer[l-1] crashed
// neurons per layer l (all Π C(N_l, f_l) configurations), evaluates
// each on all inputs, and returns the worst case. Since PR 8 it runs on
// the pruned tree engine — damaged-prefix sharing plus sound
// branch-and-bound — and returns errors (not panics) on malformed
// distributions. It refuses searches above maxConfigs to keep runtimes
// sane; that refusal is the paper's point.
func ExhaustiveWorstCrash(n nn.Model, perLayer []int, inputs [][]float64, maxConfigs int64) (ExhaustiveResult, error) {
	w, err := NewWorstCase(n, perLayer, inputs, WorstCaseOptions{Prune: true, MaxConfigs: maxConfigs})
	if err != nil {
		return ExhaustiveResult{}, err
	}
	return w.Run(context.Background())
}
