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

// trialDraw is the Monte Carlo lane loop's reusable draw: the trial's
// stream, the value stream split off it, and the buffers its plan and
// injector live in until the next trial.
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
// i's largest error over the clean traces. Its lanes are (trial, input)
// pairs in trial-major order, bp.Lanes() to a batch: a trial's lanes
// share one compiled plan, so they list the same damaged rows and
// re-sum them in one row-list call, and each level's weights stream
// once per batch. draw(i, d) supplies trial i's plan and injector,
// built in draw buffer d, and is called once per trial, in trial
// order; the trial is compiled then, and its lanes copy what they need
// of the injector. A one-at-a-time replay evaluates trial i's inputs
// in order and each evaluation draws once per fault, so lane (i, j)
// gets the trial's injector positioned F·j draws into its value
// stream, F the plan's fault count (trialLane.at), and draws exactly
// what the replay draws.
func (bp *BatchPlan) sweepTrials(traces []*nn.Trace, errs []float64, draw func(i int, d *trialDraw) (Plan, Injector)) {
	mc := bp.trialState()
	P := len(bp.lanes)
	s := 0 // lanes loaded into the current batch
	flush := func() {
		bp.active = s
		bp.evalLanes(mc.injs[:s], mc.errs[:s])
		for k := 0; k < s; k++ {
			if i := mc.trial[k]; mc.errs[k] > errs[i] {
				errs[i] = mc.errs[k]
			}
		}
		s = 0
	}
	for i := range errs {
		plan, inj := draw(i, &mc.draws[0])
		errs[i] = 0
		// A batch holds lanes of at most P consecutive trials, so plan
		// slot i mod P is not in use, and it stays trial i's while the
		// trial's lanes fill further batches: a trial is compiled once.
		cp := &bp.plans[i%P]
		cp.Reset(plan)
		F := len(plan.Neurons) + len(plan.Synapses)
		for j, tr := range traces {
			bp.lanes[s] = cp
			bp.trs[s] = tr
			mc.injs[s] = mc.lanes[s].at(inj, F*j)
			mc.trial[s] = i
			if s++; s == P {
				flush()
			}
		}
	}
	if s > 0 {
		flush()
	}
}

// trialLanes is the Monte Carlo lane loop's state: the draw buffer
// (one: a trial's lanes copy what they need of it when they are
// loaded), each lane's positioned injector, its trial, and its error
// on its input.
type trialLanes struct {
	draws []trialDraw
	lanes []trialLane
	injs  []Injector
	trial []int
	errs  []float64
}

// trialLane is one lane's copy of its trial's injector.
type trialLane struct {
	values rng.Rand
	byz    RandomByzantine
}

// at returns inj positioned for an evaluation that starts skip draws
// into its value stream: a random Byzantine injector becomes a copy on
// a copy of its stream advanced by skip; an injector that draws
// nothing is returned as it is.
func (l *trialLane) at(inj Injector, skip int) Injector {
	byz, ok := inj.(*RandomByzantine)
	if !ok {
		return inj
	}
	l.values = *byz.R
	l.values.Advance(uint64(skip))
	l.byz = *byz
	l.byz.R = &l.values
	return &l.byz
}

// trialState returns bp's Monte Carlo lane state, allocating it on
// first use.
func (bp *BatchPlan) trialState() *trialLanes {
	if bp.trials != nil {
		return bp.trials
	}
	P := len(bp.lanes)
	mc := &trialLanes{
		draws: make([]trialDraw, 1),
		lanes: make([]trialLane, P),
		injs:  make([]Injector, P),
		trial: make([]int, P),
		errs:  make([]float64, P),
	}
	mc.draws[0].perm = identityPerm(bp.m)
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
