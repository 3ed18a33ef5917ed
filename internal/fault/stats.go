package fault

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Profile is the empirical error distribution of a failure process —
// the probabilistic complement to the worst-case Fep bound: Fep certifies
// the tail's endpoint, the profile shows where the mass actually sits.
type Profile struct {
	// Stats summarises the per-trial max errors.
	Stats metrics.Stats
	// Q90, Q99 are upper quantiles of the per-trial max error.
	Q90, Q99 float64
	// Trials is the number of random failure configurations evaluated.
	Trials int
}

// MonteCarlo samples random failure configurations of the given per-layer
// distribution, each with random bounded Byzantine values (or crashes
// when c == 0), measures the max error over the inputs for each, and
// returns the empirical profile. Every trial draws from the one
// sequential stream r, in trial order; BatchPlan.MonteCarloRange is the
// variant whose trials draw from their own streams.
//
// Trials run through the batched multi-lane engine, BatchLanes
// configurations per sweep, and each lane replays the scalar
// evaluation exactly, so the profile is bit-identical to evaluating
// trials one at a time.
func MonteCarlo(n nn.Model, perLayer []int, c float64, sem core.CapSemantics, inputs [][]float64, trials int, r *rng.Rand) Profile {
	errs := make([]float64, trials)
	CompileBatch(n, BatchLanes).sweepTrials(CleanTraces(n, inputs), errs, func(_ int, d *trialDraw) (Plan, Injector) {
		return d.draw(r, n, perLayer, c, sem)
	})
	return ProfileOf(errs)
}

// MonteCarloRange computes the worst errors of Monte Carlo trials
// [base, base+len(errs)) into errs, where trial t draws its plan and
// values from its own splittable stream rng.NewStream(seed, t). A
// trial's error therefore depends only on (seed, t): splitting a
// campaign into ranges — across workers, or across a checkpoint and
// its resume — changes who runs a trial, never what it samples, and
// the ranges together reproduce one full sweep bit for bit. traces are
// the inputs' clean traces (CleanTraces); they are only read, so
// concurrent calls on different evaluators may share them. On a reused
// evaluator the sweep allocates nothing.
func (bp *BatchPlan) MonteCarloRange(perLayer []int, c float64, sem core.CapSemantics, traces []*nn.Trace, seed uint64, base int, errs []float64) {
	bp.sweepTrials(traces, errs, func(i int, d *trialDraw) (Plan, Injector) {
		d.stream.Seed(seed, uint64(base+i))
		return d.draw(&d.stream, bp.m, perLayer, c, sem)
	})
}

// trialDraw is one lane's reusable Monte Carlo draw: the trial's
// stream, the value stream split off it, and the buffers its plan and
// injector live in until the lane's next trial. The lanes share
// neuronDraw.perm (they draw one at a time).
type trialDraw struct {
	neuronDraw
	stream, values rng.Rand
	byz            RandomByzantine
}

// draw draws one Monte Carlo trial from r into d: the plan
// RandomNeuronPlan(r, n, perLayer) returns, then crashes (c == 0) or
// random bounded Byzantine values on the stream r.Split() returns —
// the same draws, in the same order, without allocating.
func (d *trialDraw) draw(r *rng.Rand, n nn.Model, perLayer []int, c float64, sem core.CapSemantics) (Plan, Injector) {
	plan := Plan{Neurons: d.neuronDraw.draw(r, n, perLayer)}
	if c == 0 {
		return plan, Crash{}
	}
	r.SplitInto(&d.values)
	d.byz = RandomByzantine{C: c, Sem: sem, R: &d.values}
	return plan, &d.byz
}

// sweepTrials is the Monte Carlo lane loop: it sets errs[i] to trial
// i's largest error over the clean traces, loading bp.Lanes() trials at
// a time so each level's weights stream once per group of trials.
// draw(i, d) supplies trial i's plan and injector, built in lane d's
// buffers, and is called in trial order.
func (bp *BatchPlan) sweepTrials(traces []*nn.Trace, errs []float64, draw func(i int, d *trialDraw) (Plan, Injector)) {
	mc := bp.trialState()
	P := len(mc.draws)
	for i := 0; i < len(errs); i += P {
		lanes := min(P, len(errs)-i)
		for p := 0; p < lanes; p++ {
			mc.plans[p], mc.injs[p] = draw(i+p, &mc.draws[p])
			mc.worst[p] = 0
		}
		bp.Reset(mc.plans[:lanes])
		for _, tr := range traces {
			bp.ErrorsOnTrace(mc.injs[:lanes], tr, mc.errs[:lanes])
			for p := 0; p < lanes; p++ {
				if mc.errs[p] > mc.worst[p] {
					mc.worst[p] = mc.errs[p]
				}
			}
		}
		copy(errs[i:i+lanes], mc.worst[:lanes])
	}
}

// trialLanes is the Monte Carlo lane loop's per-lane state: each lane's
// draw buffers, its current plan and injector, its error on the
// current trace and its worst error so far.
type trialLanes struct {
	draws       []trialDraw
	plans       []Plan
	injs        []Injector
	errs, worst []float64
}

// trialState returns bp's Monte Carlo lane state, allocating it on
// first use.
func (bp *BatchPlan) trialState() *trialLanes {
	if bp.trials != nil {
		return bp.trials
	}
	P := len(bp.lanes)
	perm := identityPerm(bp.m)
	mc := &trialLanes{
		draws: make([]trialDraw, P),
		plans: make([]Plan, P),
		injs:  make([]Injector, P),
		errs:  make([]float64, P),
		worst: make([]float64, P),
	}
	for p := range mc.draws {
		mc.draws[p].perm = perm
	}
	bp.trials = mc
	return mc
}

// ProfileOf summarises per-trial max errors into a Profile — the shared
// tail of MonteCarlo and of executors that collect
// BatchPlan.MonteCarloRange shards themselves.
func ProfileOf(errs []float64) Profile {
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	return Profile{
		Stats:  metrics.Summarize(errs),
		Q90:    quantile(sorted, 0.90),
		Q99:    quantile(sorted, 0.99),
		Trials: len(errs),
	}
}

// inputCand pairs a candidate worst input with its error.
type inputCand struct {
	x []float64
	e float64
}

// insertionSortCands orders candidates by error, descending.
func insertionSortCands(xs []inputCand) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].e > xs[j-1].e; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// WorstInput searches for an input maximising the damaged-vs-nominal
// error: a random sampling phase (16 candidates per restart) seeds
// coordinate-wise hill climbing on [0,1]^d from the best points found.
// It complements grid sampling: the tightness demonstrations need inputs
// near the equality cases of the proofs, which climbing localises far
// more cheaply than a dense grid.
func WorstInput(n nn.Model, p Plan, inj Injector, r *rng.Rand, restarts, steps int) ([]float64, float64) {
	d := n.Width(0)
	cp := Compile(n, p)
	// Sampling phase: collect starting points, keep the `restarts` best.
	pool := make([]inputCand, 0, 16*restarts)
	for i := 0; i < 16*restarts; i++ {
		x := make([]float64, d)
		r.Floats(x, 0, 1)
		pool = append(pool, inputCand{x, cp.ErrorOn(inj, x)})
	}
	insertionSortCands(pool)
	if restarts > len(pool) {
		restarts = len(pool)
	}

	bestX := make([]float64, d)
	bestErr := -1.0
	for restart := 0; restart < restarts; restart++ {
		x := append([]float64(nil), pool[restart].x...)
		cur := pool[restart].e
		step := 0.25
		for s := 0; s < steps; s++ {
			improved := false
			for i := 0; i < d; i++ {
				for _, dir := range []float64{+1, -1} {
					cand := x[i] + dir*step
					if cand < 0 || cand > 1 {
						continue
					}
					old := x[i]
					x[i] = cand
					if e := cp.ErrorOn(inj, x); e > cur {
						cur = e
						improved = true
					} else {
						x[i] = old
					}
				}
			}
			if !improved {
				step /= 2
				if step < 1e-4 {
					break
				}
			}
		}
		if cur > bestErr {
			bestErr = cur
			copy(bestX, x)
		}
	}
	return bestX, bestErr
}
