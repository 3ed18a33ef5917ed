package fault

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// NominalFree is implemented by injectors whose NeuronValue ignores its
// nominal argument (crash failures, transmission-capped Byzantine
// values). For such injectors the evaluation engine skips the clean
// reference trace entirely — the damaged pass is the only pass.
type NominalFree interface {
	NominalFree() bool
}

// NominalFree reports that crashed neurons emit 0 regardless of their
// nominal output.
func (Crash) NominalFree() bool { return true }

// NominalFree reports whether the Byzantine value depends on the clean
// nominal output (it does not under TransmissionCap, where faulty
// components emit extreme values of the allowed range).
func (b Byzantine) NominalFree() bool { return b.Sem == core.TransmissionCap }

// NominalFree is the random analogue of Byzantine.NominalFree.
func (b RandomByzantine) NominalFree() bool { return b.Sem == core.TransmissionCap }

// NominalFree delegates to the Byzantine component: crash-set neurons
// emit 0 regardless of nominal.
func (m Mixed) NominalFree() bool { return m.Byz.NominalFree() }

// needsNominal reports whether inj requires clean nominal outputs.
func needsNominal(inj Injector) bool {
	nf, ok := inj.(NominalFree)
	return !(ok && nf.NominalFree())
}

// CompiledPlan is a Plan indexed once for repeated evaluation against
// any nn.Model — dense, convolutional or arbitrary-topology: per-level
// fault lists, the damage frontier (what is off it is shared between
// the clean and damaged sweeps), and per-level skip segments for
// neurons whose received sums are overridden anyway. Evaluation is
// level-scheduled over the model's nn.AsDAG view, so synapse faults are
// addressed by in-edge ordinal — on a layered model that is the source
// neuron of layer l-1. For conv models the plan's neuron indices
// address flattened feature-map positions and its synapse (to, from)
// pairs address the virtual dense connectivity the lowering would
// materialise — shared kernel-value faults expand to their tied
// instances via conv's KernelPlan — so evaluation is native: no lowered
// matrix exists on any path, yet every result is bit-identical to
// evaluating the lowered network.
//
// On a model with an out-adjacency (nn.RowDAG: graph models) the
// frontier is row-granular: Reset lists, per level, the rows a fault
// can reach, and an evaluation against a clean trace re-sums only
// those rows and copies the rest from the trace. Other models are
// followed level by level.
//
// A CompiledPlan is immutable after Compile and safe for concurrent use
// by multiple goroutines (evaluation scratch comes from an internal
// pool), provided the injector passed to each call is itself safe for
// concurrent use. Reset re-indexes a new plan in place and must not race
// with concurrent evaluations.
type CompiledPlan struct {
	net nn.Model
	// dag is net's level view (nn.AsDAG), built once at Compile; rowDAG
	// is the same model when it follows damage row by row, nil
	// otherwise.
	dag    nn.DAGModel
	rowDAG nn.RowDAG
	plan   Plan

	// lv[l] indexes level l's faults and damage (neuron faults on
	// 1..L, synapse faults on 1..L+1; lv[L+1] is the output stage).
	lv []planLevel
	// diverge is the first hidden level on the damage frontier (L+1 if
	// only output synapses are faulty or the plan is empty): batched
	// sweeps start there. lastNominal is the deepest layer with neuron
	// faults (0 if none).
	diverge     int
	lastNominal int
	// marks[l-1] is a bitset over level l's rows, the scratch spreadRows
	// follows damage in.
	marks [][]uint64
}

// planLevel is the compiled fault index and damage of one level.
type planLevel struct {
	neurons  []NeuronFault
	synapses []SynapseFault
	// overridden lists, sorted and once each, the rows whose outputs
	// the injector replaces: their sums and activations are never
	// needed.
	overridden []int
	// rows lists, sorted, the other rows whose received sums can differ
	// from the clean pass on a row-granular model: synapse-fault targets
	// and every row that reads a damaged node.
	rows []int
	// srcDirty reports that some row reads a damaged node (on models
	// followed level by level: that some source level is damaged).
	srcDirty bool
	// whole reports that an evaluation against a clean trace recomputes
	// the whole level instead of rows: the model is followed level by
	// level and the level has damaged sources or synapse faults, or
	// rows covers more than rowFrac of the level.
	whole bool
}

// dirty reports whether the level's faulted outputs can differ from the
// clean pass: it hosts faults or reads a damaged node.
func (pl *planLevel) dirty() bool {
	return len(pl.neurons) > 0 || len(pl.synapses) > 0 || pl.srcDirty
}

// rowFrac is the share of a level's rows past which a trace evaluation
// recomputes the whole level, and the batched engine runs the lane in
// its grouped level kernel, instead of re-summing the listed rows one
// lane at a time. BenchmarkGraphRowCrossover puts the crossover at
// 0.4–0.5 of a 1024-wide sparse level when all BatchLanes lanes share
// the kernel; fewer lanes make the kernel dearer per lane, so the
// constant sits at the upper end.
const rowFrac = 0.5

// Compile indexes p against m for repeated evaluation. It panics if the
// plan addresses layers outside the model (use Plan.Validate for full
// validation with errors).
func Compile(m nn.Model, p Plan) *CompiledPlan {
	dm := nn.AsDAG(m)
	rd, _ := dm.(nn.RowDAG)
	cp := &CompiledPlan{net: m, dag: dm, rowDAG: rd}
	cp.Reset(p)
	return cp
}

// Plan returns the plan as passed to Compile/Reset. The fault slices
// are retained, not copied: if the caller rebuilds the plan in a reused
// buffer (the allocation-free Reset sweep), Plan reflects the buffer's
// current contents, not the compiled index — copy the slices before
// mutating them if the original plan must stay readable.
func (cp *CompiledPlan) Plan() Plan { return cp.plan }

// RecomputedRows returns how many rows of level l (1..L) an
// evaluation against a clean trace re-sums: the level's width when it
// is evaluated whole, its listed rows otherwise, 0 off the damage
// frontier.
func (cp *CompiledPlan) RecomputedRows(l int) int {
	switch pl := &cp.lv[l]; {
	case !pl.dirty():
		return 0
	case pl.whole:
		return cp.net.Width(l)
	default:
		return len(pl.rows)
	}
}

// Reset re-indexes cp for a new plan, reusing the index buffers — the
// allocation-free way to sweep many plans over one model (the plan's
// slices are read during Reset and retained only for Plan; evaluation
// never touches them again). Not safe to call while other goroutines
// evaluate cp.
func (cp *CompiledPlan) Reset(p Plan) {
	L := cp.net.NumLayers()
	if cap(cp.lv) < L+2 {
		cp.lv = make([]planLevel, L+2)
	}
	cp.lv = cp.lv[:L+2]
	for l := range cp.lv {
		pl := &cp.lv[l]
		pl.neurons, pl.synapses = pl.neurons[:0], pl.synapses[:0]
		pl.overridden, pl.rows = pl.overridden[:0], pl.rows[:0]
		pl.srcDirty, pl.whole = false, false
	}
	for _, f := range p.Neurons {
		if f.Layer < 1 || f.Layer > L {
			panic(fmt.Sprintf("fault: neuron fault at layer %d outside 1..%d", f.Layer, L))
		}
		pl := &cp.lv[f.Layer]
		pl.neurons = append(pl.neurons, f)
		pl.overridden = append(pl.overridden, f.Index)
	}
	for _, f := range p.Synapses {
		if f.Layer < 1 || f.Layer > L+1 {
			panic(fmt.Sprintf("fault: synapse fault at layer %d outside 1..%d", f.Layer, L+1))
		}
		cp.lv[f.Layer].synapses = append(cp.lv[f.Layer].synapses, f)
	}
	cp.lastNominal = 0
	for l := 1; l <= L; l++ {
		pl := &cp.lv[l]
		sort.Ints(pl.overridden)
		// Compact duplicates: a (not Validate-d) plan may list a neuron
		// twice; the override loop still applies every entry in plan
		// order, but the skip segments must name each row once.
		uniq := pl.overridden[:0]
		for i, v := range pl.overridden {
			if i == 0 || v != pl.overridden[i-1] {
				uniq = append(uniq, v)
			}
		}
		pl.overridden = uniq
		if len(pl.neurons) > 0 {
			cp.lastNominal = l
		}
	}
	if cp.rowDAG != nil {
		cp.spreadRows()
	} else {
		cp.spreadLevels()
	}
	cp.diverge = L + 1
	for l := 1; l <= L; l++ {
		if cp.lv[l].dirty() {
			cp.diverge = l
			break
		}
	}
	cp.plan = p
}

// spreadLevels follows damage level by level, in ascending order: a
// level's sources are dirty when some source level is damaged, and a
// trace evaluation recomputes a level with dirty sources or synapse
// faults whole.
func (cp *CompiledPlan) spreadLevels() {
	for l := 1; l < len(cp.lv); l++ {
		pl := &cp.lv[l]
		for _, v := range cp.dag.SrcLevels(l) {
			if v >= 1 && cp.lv[v].dirty() {
				pl.srcDirty = true
				break
			}
		}
		pl.whole = pl.srcDirty || len(pl.synapses) > 0
	}
}

// spreadRows follows damage row by row over the model's out-adjacency,
// in ascending level order. A level's damaged nodes are its overridden
// rows plus its listed rows — synapse-fault targets and the rows that
// read a damaged node, which the lower levels have marked by the time
// the level is reached. Once a level is recomputed whole, every level
// reading it is treated as whole too: past the crossover the lists
// would buy nothing, and over-approximating damage never changes a
// result, since a recomputed clean row reproduces the trace's bits.
func (cp *CompiledPlan) spreadRows() {
	L := len(cp.lv) - 2
	if len(cp.marks) < L {
		cp.marks = make([][]uint64, L)
		for l := 1; l <= L; l++ {
			cp.marks[l-1] = make([]uint64, (cp.net.Width(l)+63)/64)
		}
	}
	for l := 1; l <= L; l++ {
		mk := cp.marks[l-1]
		clear(mk)
		for _, f := range cp.lv[l].synapses {
			mk[f.To>>6] |= 1 << (f.To & 63)
		}
	}
	for l := 1; l <= L; l++ {
		pl := &cp.lv[l]
		if !pl.whole {
			mk := cp.marks[l-1]
			for _, i := range pl.overridden {
				mk[i>>6] &^= 1 << (i & 63)
			}
			for w, word := range mk {
				for ; word != 0; word &= word - 1 {
					pl.rows = append(pl.rows, w<<6|bits.TrailingZeros64(word))
				}
			}
			pl.whole = float64(len(pl.rows)) > rowFrac*float64(cp.net.Width(l))
		}
		if pl.whole {
			for k := l + 1; k <= L+1; k++ {
				if slices.Contains(cp.dag.SrcLevels(k), l) {
					cp.lv[k].srcDirty, cp.lv[k].whole = true, true
				}
			}
			continue
		}
		cp.spread(l, pl.rows)
		cp.spread(l, pl.overridden)
	}
}

// spread marks every reader of the listed nodes of level l: their rows
// read a damaged node.
func (cp *CompiledPlan) spread(l int, nodes []int) {
	out := int32(len(cp.lv) - 1)
	for _, i := range nodes {
		for _, r := range cp.rowDAG.Readers(l, i) {
			cp.lv[r.Level].srcDirty = true
			if r.Level < out {
				cp.marks[r.Level-1][r.Index>>6] |= 1 << (r.Index & 63)
			}
		}
	}
}

// planEval is the reusable scratch of one evaluation: per-level buffers
// for the damaged sweep and (when needed) the clean reference sweep.
type planEval struct {
	// sizedFor tags the model the buffers currently fit, skipping the
	// per-layer size walk on the hot path.
	sizedFor nn.Model
	fault    [][]float64
	clean    [][]float64
	// levelsF/levelsC are the per-level output pointers of the two
	// sweeps (index v = level v; entry 0 is the input).
	levelsF [][]float64
	levelsC [][]float64
	// pairDst/pairSrc/pairYs are the arguments of the two-lane level
	// call that computes the clean and damaged sums together.
	pairDst [2][]float64
	pairSrc [2][][]float64
	pairYs  [2][]float64
}

func (e *planEval) ensure(m nn.Model) {
	if e.sizedFor == m {
		return
	}
	e.fault = nn.EnsureLayerSlices(m, 1, e.fault)
	e.clean = nn.EnsureLayerSlices(m, 1, e.clean)
	L := m.NumLayers()
	if cap(e.levelsF) < L+1 {
		e.levelsF = make([][]float64, L+1)
		e.levelsC = make([][]float64, L+1)
	}
	e.levelsF = e.levelsF[:L+1]
	e.levelsC = e.levelsC[:L+1]
	e.sizedFor = m
}

// evalPool recycles evaluation scratch across plans, goroutines and
// models (buffers are grow-only).
var evalPool = sync.Pool{New: func() any { return new(planEval) }}

// Forward evaluates the damaged neural function Ffail on x. Identical in
// semantics to the package-level Forward, but the fault index is reused
// across calls and the steady state allocates nothing. The clean
// reference trace is only computed as deep as the injector actually
// needs nominal values (not at all for crash failures).
func (cp *CompiledPlan) Forward(inj Injector, x []float64) float64 {
	e := evalPool.Get().(*planEval)
	f, _ := cp.eval(e, inj, x, nil, false)
	evalPool.Put(e)
	return f
}

// ErrorOn returns |Fneu(x) - Ffail(x)| with the clean and damaged sweeps
// fused: levels off the divergence frontier are computed once and
// shared, and on it each weight is read once for both sweeps.
func (cp *CompiledPlan) ErrorOn(inj Injector, x []float64) float64 {
	e := evalPool.Get().(*planEval)
	f, c := cp.eval(e, inj, x, nil, true)
	evalPool.Put(e)
	return math.Abs(c - f)
}

// ErrorOnTrace returns |Fneu - Ffail| on tr.Input given the input's
// precomputed clean trace: only the damaged sweep runs, and it starts at
// the plan's first divergent layer. Use CleanTraces to evaluate a fixed
// input set once and sweep many plans over it.
func (cp *CompiledPlan) ErrorOnTrace(inj Injector, tr *nn.Trace) float64 {
	e := evalPool.Get().(*planEval)
	f, _ := cp.eval(e, inj, tr.Input, tr, false)
	evalPool.Put(e)
	return math.Abs(tr.Output - f)
}

// eval runs the fused level-scheduled sweep. Every level stays resident
// so later levels can read it: levels off the damage frontier are
// bitwise identical between the clean and damaged passes and are
// computed once (or taken straight from the precomputed trace), levels
// on it branch. tr, when non-nil, supplies the clean trace (no clean
// computation happens at all, and frontier levels recompute only their
// listed rows unless marked whole); needClean requests the clean output
// even without a trace. Without a trace every level is computed whole.
// Returns the damaged output and, when available, the clean output.
func (cp *CompiledPlan) eval(e *planEval, inj Injector, x []float64, tr *nn.Trace, needClean bool) (faulted, clean float64) {
	m := cp.dag
	L := m.NumLayers()
	act := m.Activation()
	e.ensure(cp.net)

	// How deep the clean sweep must run: to the end for the fused error,
	// to the deepest neuron fault when the injector consumes nominal
	// values, not at all alongside a precomputed trace.
	cleanUpTo := 0
	if tr == nil {
		if needClean {
			cleanUpTo = L
		} else if needsNominal(inj) {
			cleanUpTo = cp.lastNominal
		}
	}

	ysF, ysC := e.levelsF, e.levelsC
	ysF[0], ysC[0] = x, x
	for l := 1; l <= L; l++ {
		pl := &cp.lv[l]
		sF := e.fault[l-1]
		switch {
		case tr != nil:
			ysC[l] = tr.Outputs[l-1]
			if !pl.dirty() {
				ysF[l] = tr.Outputs[l-1]
				continue
			}
			if !pl.whole {
				cp.evalRows(inj, act, l, sF, ysF, tr.Outputs[l-1])
				ysF[l] = sF
				continue
			}
			m.LevelSums(l, sF, ysF, pl.overridden)
		case !pl.dirty():
			// Off the frontier: one sweep serves both passes (all sources
			// of l are themselves off the frontier, so ysF holds their
			// clean outputs).
			m.LevelSums(l, sF, ysF, nil)
			activation.Eval(act, sF, sF)
			ysF[l], ysC[l] = sF, sF
			continue
		case l <= cleanUpTo:
			sC := e.clean[l-1]
			if pl.srcDirty {
				// Both passes read damaged-vs-clean sources: one two-lane
				// call computes both sums, each weight read once.
				e.pairDst = [2][]float64{sC, sF}
				e.pairSrc = [2][][]float64{ysC, ysF}
				nn.LevelSumsLanesModel(m, l, e.pairDst[:], e.pairSrc[:], e.pairYs[:])
			} else {
				// First divergent level: every source is clean, so the
				// received sums are shared — compute them once and branch
				// the activations.
				m.LevelSums(l, sF, ysF, nil)
				copy(sC, sF)
			}
			activation.Eval(act, sC, sC)
			ysC[l] = sC
		default:
			m.LevelSums(l, sF, ysF, pl.overridden)
		}
		var nomC []float64
		switch {
		case tr != nil:
			nomC = tr.Outputs[l-1]
		case l <= cleanUpTo:
			nomC = ysC[l]
		}
		cp.applyFaults(inj, act, l, sF, ysF, nomC)
		ysF[l] = sF
	}

	faulted = m.OutputSumLevels(ysF)
	for _, f := range cp.lv[L+1].synapses {
		sl, si, w := m.InEdge(L+1, f.To, f.From)
		faulted += inj.SynapseDelta(f, w*ysF[sl][si])
	}
	switch {
	case tr != nil:
		clean = tr.Output
	case needClean:
		clean = m.OutputSumLevels(ysC)
	}
	return faulted, clean
}

// evalRows evaluates frontier level l row by row against its clean
// outputs: it copies them into sF, re-sums and re-activates the listed
// rows over the damaged sources ys, and applies the level's faults in
// the whole-level order (synapse deltas on the sums, then neuron
// overrides), so a stochastic injector draws exactly as it would on the
// whole level. A row off the list reads only clean nodes and carries no
// fault, so its sum — every kernel adds in tensor.Dot's order — and
// output are bitwise the trace's. With no rows listed this is the copy
// path of a level whose damage is only its own neuron faults.
func (cp *CompiledPlan) evalRows(inj Injector, act activation.Func, l int, sF []float64, ys [][]float64, clean []float64) {
	pl := &cp.lv[l]
	copy(sF, clean)
	if len(pl.rows) > 0 {
		cp.rowDAG.LevelRowSums(l, sF, ys, pl.rows)
	}
	if len(pl.synapses) > 0 {
		cp.applySynapses(inj, l, sF, ys)
	}
	if len(pl.rows) > 0 {
		activation.EvalAt(act, sF, pl.rows)
	}
	cp.overrideNeurons(inj, l, sF, clean)
}

// applyFaults finishes whole level l in sF: synapse deltas on the
// received sums (in-edge ordinal addressing — a fault can sit on a skip
// edge), the activation around the overridden rows, then the neuron
// overrides, with nomC, when non-nil, supplying clean nominal outputs.
func (cp *CompiledPlan) applyFaults(inj Injector, act activation.Func, l int, sF []float64, ys [][]float64, nomC []float64) {
	if len(cp.lv[l].synapses) > 0 {
		cp.applySynapses(inj, l, sF, ys)
	}
	evalSkip(act, sF, cp.lv[l].overridden)
	cp.overrideNeurons(inj, l, sF, nomC)
}

// applySynapses adds level l's synapse-fault deltas to the received
// sums in sF, each reading its damaged source in ys.
func (cp *CompiledPlan) applySynapses(inj Injector, l int, sF []float64, ys [][]float64) {
	for _, f := range cp.lv[l].synapses {
		sl, si, w := cp.dag.InEdge(l, f.To, f.From)
		sF[f.To] += inj.SynapseDelta(f, w*ys[sl][si])
	}
}

// overrideNeurons replaces layer l's faulty outputs in sF; nomC, when
// non-nil, supplies the clean nominal outputs (injectors that never
// consume nominals receive a fixed 0). Crashed neurons always emit 0,
// written directly instead of an interface call per fault.
func (cp *CompiledPlan) overrideNeurons(inj Injector, l int, sF, nomC []float64) {
	if _, isCrash := inj.(Crash); isCrash {
		for _, f := range cp.lv[l].neurons {
			sF[f.Index] = 0
		}
		return
	}
	for _, f := range cp.lv[l].neurons {
		nom := 0.0
		if nomC != nil {
			nom = nomC[f.Index]
		}
		sF[f.Index] = inj.NeuronValue(f, nom)
	}
}

// evalSkip applies the activation in place to every entry of s except
// the (sorted) skipped indices, whose values are overridden afterwards.
func evalSkip(f activation.Func, s []float64, skip []int) {
	if len(skip) == 0 {
		activation.Eval(f, s, s)
		return
	}
	lo := 0
	for _, idx := range skip {
		if idx > lo {
			activation.Eval(f, s[lo:idx], s[lo:idx])
		}
		lo = idx + 1
	}
	if lo < len(s) {
		activation.Eval(f, s[lo:], s[lo:])
	}
}

// CleanTraces evaluates the fault-free trace of every input once, in
// parallel — the shared reference for sweeping many plans over a fixed
// input set (Monte Carlo profiles, sign searches, exhaustive
// configuration searches).
func CleanTraces(m nn.Model, inputs [][]float64) []*nn.Trace {
	out := make([]*nn.Trace, len(inputs))
	parallel.For(len(inputs), func(i int) { out[i] = nn.TraceModel(m, inputs[i]) })
	return out
}
