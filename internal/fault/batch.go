package fault

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// BatchLanes is the default lane count of the batched plan engine: 8
// damaged sweeps per matrix pass (one AVX2 8-lane kernel group where the
// CPU has it, four paired-lane groups otherwise), enough to amortise the
// matrix traffic that bounds the scalar engine without outgrowing L1
// with lane state.
const BatchLanes = 8

// BatchPlan evaluates P compiled plans against one model as a single
// multi-lane level-scheduled sweep. Each lane carries a per-level
// pointer array: levels off the lane's divergence frontier alias its
// clean trace and cost nothing, frontier levels point at the lane's
// scratch. Every frontier level then evaluates all its live lanes in
// one call to the level lane kernel — one sweep over W^{(l)}
// (tensor.MulVecLanesAddTo) for dense layers reached through the
// layered view, paired ConvAcc sweeps for conv layers, one pass over
// the level's edges per group of four lanes (tensor.CSR.GatherLanesAddTo)
// for graph levels — so the weights stream from cache once per batch
// of lanes instead of once per plan, which is where the structural
// speedup over the one-at-a-time engine comes from. A lane whose
// damage at a level is a short row list (graph models, at most rowFrac
// of the level) re-sums just those rows instead of joining the batch,
// in one row-list call with the consecutive lanes that share its plan
// (ResetShared, the Monte Carlo lane loop's inputs); with no rows
// listed it copies the trace outputs and overrides its faulty neurons.
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
	// m is the model's level view (nn.AsDAG), shared by every lane;
	// rowDAG is the same model when it follows damage row by row.
	m      nn.DAGModel
	rowDAG nn.RowDAG
	// lanes[p] is lane p's compiled plan, one of plans: lanes loaded
	// with the same plan share one compile.
	lanes []*CompiledPlan
	plans []CompiledPlan

	active int
	sc     nn.BatchScratch
	// dsts/srcs are the level kernel's per-slot outputs and level
	// arrays for the live lanes, xs its per-slot scratch (see
	// nn.LevelSumsLanesModel); laneOf maps a kernel slot back to its
	// lane; trs holds each lane's clean trace for the current
	// evaluation.
	xs     [][]float64
	dsts   [][]float64
	srcs   [][][]float64
	laneOf []int
	trs    []*nn.Trace
	// outs backs the output node's per-lane sums.
	outs []float64
	// levels[p][v] is lane p's pointer to level v's outputs during a
	// sweep (entry 0 the input; clean levels alias the lane's trace,
	// frontier levels the lane's scratch buffer).
	levels [][][]float64

	// trials is the Monte Carlo lane loop's state (sweepTrials),
	// allocated on its first use.
	trials *trialLanes
}

// CompileBatch builds a batched evaluator with the given lane capacity
// (0 or negative selects BatchLanes). Load plans with Reset or
// ResetShared before evaluating.
func CompileBatch(m nn.Model, lanes int) *BatchPlan {
	if lanes <= 0 {
		lanes = BatchLanes
	}
	dm := nn.AsDAG(m)
	rd, _ := dm.(nn.RowDAG)
	L := m.NumLayers()
	bp := &BatchPlan{
		m:      dm,
		rowDAG: rd,
		lanes:  make([]*CompiledPlan, lanes),
		plans:  make([]CompiledPlan, lanes),
		xs:     make([][]float64, lanes),
		dsts:   make([][]float64, lanes),
		srcs:   make([][][]float64, lanes),
		laneOf: make([]int, lanes),
		trs:    make([]*nn.Trace, lanes),
		outs:   make([]float64, lanes),
		levels: make([][][]float64, lanes),
	}
	// One allocation for the lanes' level arrays: a serve Monte Carlo
	// chunk builds a batch per few trials.
	levels := make([][]float64, lanes*(L+1))
	for p := range bp.lanes {
		bp.plans[p] = CompiledPlan{net: m, dag: dm, rowDAG: rd}
		bp.plans[p].Reset(Plan{})
		bp.lanes[p] = &bp.plans[p]
		bp.levels[p] = levels[p*(L+1) : (p+1)*(L+1)]
	}
	bp.sc.Ensure(dm, lanes)
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
		bp.plans[p].Reset(plan)
		bp.lanes[p] = &bp.plans[p]
	}
	bp.active = len(plans)
}

// ResetShared loads the same plan into n lanes — the input-batching
// configuration: one plan evaluated against n different traces per
// call (MaxError's axis, where the plan is fixed and the inputs vary).
// The plan is compiled once and every lane points at it, so the lanes
// list the same damaged rows and re-sum them in one row-list call.
func (bp *BatchPlan) ResetShared(plan Plan, n int) {
	if n > len(bp.lanes) {
		panic(fmt.Sprintf("fault: BatchPlan.ResetShared with %d lanes of %d", n, len(bp.lanes)))
	}
	bp.plans[0].Reset(plan)
	for p := 0; p < n; p++ {
		bp.lanes[p] = &bp.plans[0]
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
	m := bp.m
	L := m.NumLayers()
	act := m.Activation()

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
		for p := 0; p < n; {
			cp := bp.lanes[p]
			pl := &cp.lv[l]
			if !pl.dirty() {
				p++
				continue
			}
			if !pl.whole {
				// Few rows can differ from the clean trace: the run of
				// lanes p..q that share this plan re-sums just those rows
				// (the scalar engine's row path), in one row-list call,
				// instead of joining the kernel batch.
				q := p + 1
				for q < n && bp.lanes[q] == cp {
					q++
				}
				cp.evalRows(injs[p:q], act, l, lanebufs[p:q], bp.levels[p:q], bp.trs[p:q])
				for ; p < q; p++ {
					bp.levels[p][l] = lanebufs[p]
				}
				continue
			}
			bp.dsts[k] = lanebufs[p]
			bp.srcs[k] = bp.levels[p]
			bp.laneOf[k] = p
			k++
			p++
		}
		if k == 0 {
			continue
		}
		// One sweep over the level's weights serves every live lane.
		nn.LevelSumsLanesModel(m, l, bp.dsts[:k], bp.srcs[:k], bp.xs)
		// Fault application per lane, in the exact order of the scalar
		// engine, with nominals read off the clean trace.
		for s := 0; s < k; s++ {
			p := bp.laneOf[s]
			bp.lanes[p].applyFaults(injs[p], act, l, bp.dsts[s], bp.levels[p], bp.trs[p].Outputs[l-1])
			bp.levels[p][l] = bp.dsts[s]
		}
	}

	// The output node: on a row-granular model every lane lists its one
	// row, so all lanes take one row-list call.
	if bp.rowDAG != nil {
		for p := 0; p < n; p++ {
			bp.dsts[p] = bp.outs[p : p+1]
		}
		bp.rowDAG.LevelRowSumsLanes(L+1, bp.dsts[:n], bp.levels[:n], outputRow)
	} else {
		for p := 0; p < n; p++ {
			bp.outs[p] = m.OutputSumLevels(bp.levels[p])
		}
	}
	for p := 0; p < n; p++ {
		ys := bp.levels[p]
		faulted := bp.outs[p]
		for _, f := range bp.lanes[p].lv[L+1].synapses {
			sl, si, w := m.InEdge(L+1, f.To, f.From)
			faulted += injs[p].SynapseDelta(f, w*ys[sl][si])
		}
		out[p] = math.Abs(bp.trs[p].Output - faulted)
	}
}

// outputRow is the output node's row list.
var outputRow = []int{0}
