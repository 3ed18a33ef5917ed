package fault

import (
	"fmt"
	"math"

	"repro/internal/activation"
	"repro/internal/nn"
)

// BatchLanes is the default lane count of the batched plan engine: 8
// damaged sweeps per matrix pass (one AVX2 8-lane kernel group where the
// CPU has it, four paired-lane groups otherwise), enough to amortise the
// matrix traffic that bounds the scalar engine without outgrowing L1
// with lane state.
const BatchLanes = 8

// BatchPlan evaluates P compiled plans against one model as a single
// multi-lane sweep. The clean prefix is shared: every lane starts from
// the input's precomputed clean trace at its plan's first divergent
// layer, and from there the damaged suffixes advance together — each
// layer's weight matrix streams from cache once per batch of lanes
// instead of once per plan (tensor.MulVecLanesAddTo), which is where
// the structural speedup over the one-at-a-time engine comes from.
//
// Arbitrary-topology models run the same fusion level-scheduled: each
// lane carries a per-level pointer array over the virtual source
// concatenation — levels off the lane's divergence frontier alias the
// clean trace, levels on it point at the lane's scratch — and every
// frontier level gathers its lanes through the multi-lane CSR kernel
// (tensor.CSR.GatherLanesAddTo), which streams the level's edges once
// per group of four lanes. A divergent level with no synapse faults and
// clean sources copies the trace outputs and overrides the faulty
// neurons, the DAG form of the layered divergence-layer fast path.
//
// Per lane the arithmetic replays CompiledPlan.ErrorOnTrace exactly
// (same kernels, same accumulation order, same fault-application
// order), so batched float64 results are bit-identical to the
// one-at-a-time oracle for every injector.
//
// A BatchPlan is NOT safe for concurrent use: it owns its lane scratch.
// Give each worker its own (the sharded sweeps in measure.go and
// serve's Monte Carlo do).
type BatchPlan struct {
	net   nn.Model
	dag   nn.DAGModel // non-nil for arbitrary-topology models
	lanes []*CompiledPlan

	active int
	sc     nn.BatchScratch
	// xs/dsts are the per-layer kernel views of the active lanes;
	// laneOf maps a kernel slot back to its lane; trs holds each lane's
	// clean trace for the current evaluation.
	xs     [][]float64
	dsts   [][]float64
	laneOf []int
	trs    []*nn.Trace
	// levels[p][v] is lane p's pointer to level v's outputs during a DAG
	// sweep (entry 0 the input; clean levels alias the lane's trace,
	// frontier levels the lane's scratch buffer); srcs is the kernel's
	// per-slot view of the live lanes' level arrays.
	levels [][][]float64
	srcs   [][][]float64
}

// CompileBatch builds a batched evaluator with the given lane capacity
// (0 or negative selects BatchLanes). Load plans with Reset or
// ResetShared before evaluating.
func CompileBatch(m nn.Model, lanes int) *BatchPlan {
	if lanes <= 0 {
		lanes = BatchLanes
	}
	bp := &BatchPlan{
		net:    m,
		lanes:  make([]*CompiledPlan, lanes),
		xs:     make([][]float64, lanes),
		dsts:   make([][]float64, lanes),
		laneOf: make([]int, lanes),
		trs:    make([]*nn.Trace, lanes),
	}
	for p := range bp.lanes {
		bp.lanes[p] = Compile(m, Plan{})
	}
	bp.sc.Ensure(m, lanes)
	if dm, ok := m.(nn.DAGModel); ok {
		bp.dag = dm
		L := m.NumLayers()
		bp.levels = make([][][]float64, lanes)
		for p := range bp.levels {
			bp.levels[p] = make([][]float64, L+1)
		}
		bp.srcs = make([][][]float64, lanes)
	}
	return bp
}

// Lanes returns the lane capacity.
func (bp *BatchPlan) Lanes() int { return len(bp.lanes) }

// Reset re-indexes the lanes for a new group of plans (len(plans) may
// be anything up to the capacity), reusing every index buffer — the
// allocation-free way to sweep many plan groups, mirroring
// CompiledPlan.Reset lane by lane.
func (bp *BatchPlan) Reset(plans []Plan) {
	if len(plans) > len(bp.lanes) {
		panic(fmt.Sprintf("fault: BatchPlan.Reset with %d plans for %d lanes", len(plans), len(bp.lanes)))
	}
	for p, plan := range plans {
		bp.lanes[p].Reset(plan)
	}
	bp.active = len(plans)
}

// ResetShared loads the same plan into n lanes — the input-batching
// configuration: one plan evaluated against n different traces per
// call (MaxError's axis, where the plan is fixed and the inputs vary).
func (bp *BatchPlan) ResetShared(plan Plan, n int) {
	if n > len(bp.lanes) {
		panic(fmt.Sprintf("fault: BatchPlan.ResetShared with %d lanes of %d", n, len(bp.lanes)))
	}
	for p := 0; p < n; p++ {
		bp.lanes[p].Reset(plan)
	}
	bp.active = n
}

// ErrorsOnTrace evaluates every loaded lane against one clean trace:
// out[p] receives |Fneu - Ffail_p| on tr.Input, bit-identical to
// lanes[p].ErrorOnTrace(injs[p], tr). This is the plan-batching axis
// (exhaustive search, Monte Carlo: many plans, one input at a time).
func (bp *BatchPlan) ErrorsOnTrace(injs []Injector, tr *nn.Trace, out []float64) {
	for p := 0; p < bp.active; p++ {
		bp.trs[p] = tr
	}
	bp.evalLanes(injs, out)
}

// ErrorsOnTraces evaluates lane p against trs[p]: the general form
// (per-lane plan AND per-lane input). len(injs), len(trs) and len(out)
// must cover the loaded lanes.
func (bp *BatchPlan) ErrorsOnTraces(injs []Injector, trs []*nn.Trace, out []float64) {
	copy(bp.trs, trs[:bp.active])
	bp.evalLanes(injs, out)
}

// evalLanes is the fused multi-lane damaged sweep over bp.trs; out[p]
// receives lane p's absolute error.
func (bp *BatchPlan) evalLanes(injs []Injector, out []float64) {
	n := bp.active
	if len(injs) < n || len(out) < n {
		panic("fault: BatchPlan evaluation with short injector or output slice")
	}
	if bp.dag != nil {
		bp.evalLanesDAG(injs, out)
		return
	}
	m := bp.net
	L := m.NumLayers()
	act := m.Activation()
	bp.sc.Ensure(m, len(bp.lanes))

	minD := L + 1
	for p := 0; p < n; p++ {
		if d := bp.lanes[p].diverge; d < minD {
			minD = d
		}
	}

	for l := minD; l <= L; l++ {
		// Gather the lanes live at this layer and their inputs: the
		// trace prefix at the divergence layer, the lane's own previous
		// buffer after it.
		k := 0
		lanebufs := bp.sc.Layer(l)
		for p := 0; p < n; p++ {
			cp := bp.lanes[p]
			d := cp.diverge
			if l < d {
				continue
			}
			if l == d {
				tr := bp.trs[p]
				if len(cp.synapsesAt[l]) == 0 {
					// Divergence layer without synapse faults: the
					// received sums equal the clean ones, so the lane's
					// outputs are bitwise the trace's — copy and
					// override here instead of joining the kernel
					// batch (same fast path as the scalar engine).
					dst := lanebufs[p]
					copy(dst, tr.Outputs[l-1])
					if _, isCrash := injs[p].(Crash); isCrash {
						for _, f := range cp.neuronsAt[l] {
							dst[f.Index] = 0
						}
					} else {
						for _, f := range cp.neuronsAt[l] {
							dst[f.Index] = injs[p].NeuronValue(f, tr.Outputs[l-1][f.Index])
						}
					}
					continue
				}
				if l == 1 {
					bp.xs[k] = tr.Input
				} else {
					bp.xs[k] = tr.Outputs[l-2]
				}
			} else {
				bp.xs[k] = bp.sc.Layer(l - 1)[p]
			}
			bp.dsts[k] = lanebufs[p]
			bp.laneOf[k] = p
			k++
		}
		// One sweep over W^{(l)} serves every live lane.
		nn.LayerSumsLanesModel(m, l, bp.dsts[:k], bp.xs[:k])
		// Fault application per lane, in the exact order of the
		// one-at-a-time engine: synapse deltas on the received sums,
		// activation around the overridden rows, then neuron overrides
		// reading nominals off the clean trace.
		for s := 0; s < k; s++ {
			p := bp.laneOf[s]
			cp := bp.lanes[p]
			inj := injs[p]
			sF := bp.dsts[s]
			yPrev := bp.xs[s]
			for _, f := range cp.synapsesAt[l] {
				transmitted := m.Weight(l, f.To, f.From) * yPrev[f.From]
				sF[f.To] += inj.SynapseDelta(f, transmitted)
			}
			evalSkip(act, sF, cp.overridden[l])
			if _, isCrash := inj.(Crash); isCrash {
				for _, f := range cp.neuronsAt[l] {
					sF[f.Index] = 0
				}
			} else {
				tr := bp.trs[p]
				for _, f := range cp.neuronsAt[l] {
					sF[f.Index] = inj.NeuronValue(f, tr.Outputs[l-1][f.Index])
				}
			}
		}
	}

	for p := 0; p < n; p++ {
		cp := bp.lanes[p]
		tr := bp.trs[p]
		yF := tr.Outputs[L-1]
		if cp.diverge <= L {
			yF = bp.sc.Layer(L)[p]
		}
		faulted := m.OutputSum(yF)
		for _, f := range cp.synapsesAt[L+1] {
			transmitted := m.Weight(L+1, f.To, f.From) * yF[f.From]
			faulted += injs[p].SynapseDelta(f, transmitted)
		}
		out[p] = math.Abs(tr.Output - faulted)
	}
}

// evalLanesDAG is the level-scheduled form of evalLanes for
// arbitrary-topology models. Each lane owns a per-level pointer array:
// levels off the lane's divergence frontier alias the clean trace and
// cost nothing, frontier levels evaluate into the lane's scratch — and
// all lanes live at a level gather together through the multi-lane
// sparse kernel, one pass over the level's edges per group of four
// lanes. Per lane the arithmetic replays evalDAG's trace path exactly,
// so results stay bit-identical to the scalar engine for every
// injector.
func (bp *BatchPlan) evalLanesDAG(injs []Injector, out []float64) {
	m := bp.dag
	L := m.NumLayers()
	act := m.Activation()
	bp.sc.Ensure(bp.net, len(bp.lanes))
	n := bp.active

	// Wire each lane's level pointers to its clean trace; frontier
	// levels are repointed at scratch as the sweep computes them.
	minD := L + 1
	for p := 0; p < n; p++ {
		tr := bp.trs[p]
		ys := bp.levels[p]
		ys[0] = tr.Input
		for l := 1; l <= L; l++ {
			ys[l] = tr.Outputs[l-1]
		}
		if d := bp.lanes[p].diverge; d < minD {
			minD = d
		}
	}

	for l := minD; l <= L; l++ {
		k := 0
		lanebufs := bp.sc.Layer(l)
		for p := 0; p < n; p++ {
			cp := bp.lanes[p]
			if !cp.frontier[l] {
				continue
			}
			if len(cp.synapsesAt[l]) == 0 && !cp.srcDirty[l] {
				// Divergent level with clean sources and no synapse
				// faults: the received sums equal the clean ones, so
				// non-overridden outputs are bitwise the trace's — copy
				// and override instead of joining the kernel batch (the
				// DAG form of the layered divergence-layer fast path).
				tr := bp.trs[p]
				dst := lanebufs[p]
				copy(dst, tr.Outputs[l-1])
				_, isCrash := injs[p].(Crash)
				cp.overrideNeurons(injs[p], isCrash, l, dst, tr.Outputs[l-1])
				bp.levels[p][l] = dst
				continue
			}
			bp.dsts[k] = lanebufs[p]
			bp.srcs[k] = bp.levels[p]
			bp.laneOf[k] = p
			k++
		}
		if k == 0 {
			continue
		}
		// One sweep over the level's edge list serves every live lane.
		nn.LevelSumsLanesModel(m, l, bp.dsts[:k], bp.srcs[:k])
		// Fault application per lane, in the exact order of the scalar
		// level-scheduled engine: synapse deltas on the received sums
		// (in-edge ordinal addressing — a fault can sit on a skip edge),
		// activation, then neuron overrides reading nominals off the
		// clean trace. Overridden rows are computed and then overwritten,
		// which leaves the same final values as the scalar skip lists.
		for s := 0; s < k; s++ {
			p := bp.laneOf[s]
			cp := bp.lanes[p]
			inj := injs[p]
			sF := bp.dsts[s]
			ys := bp.levels[p]
			for _, f := range cp.synapsesAt[l] {
				sl, si, w := m.InEdge(l, f.To, f.From)
				sF[f.To] += inj.SynapseDelta(f, w*ys[sl][si])
			}
			activation.Eval(act, sF, sF)
			_, isCrash := inj.(Crash)
			cp.overrideNeurons(inj, isCrash, l, sF, bp.trs[p].Outputs[l-1])
			ys[l] = sF
		}
	}

	for p := 0; p < n; p++ {
		cp := bp.lanes[p]
		ys := bp.levels[p]
		faulted := m.OutputSumLevels(ys)
		for _, f := range cp.synapsesAt[L+1] {
			sl, si, w := m.InEdge(L+1, f.To, f.From)
			faulted += injs[p].SynapseDelta(f, w*ys[sl][si])
		}
		out[p] = math.Abs(bp.trs[p].Output - faulted)
	}
}
