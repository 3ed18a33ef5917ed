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
// sequential stream r, in trial order; MonteCarloRange is the variant
// whose trials draw from their own streams.
//
// Trials run through the batched multi-lane engine, BatchLanes
// configurations per sweep, and each lane replays the scalar
// evaluation exactly, so the profile is bit-identical to evaluating
// trials one at a time.
func MonteCarlo(n nn.Model, perLayer []int, c float64, sem core.CapSemantics, inputs [][]float64, trials int, r *rng.Rand) Profile {
	errs := make([]float64, trials)
	sweepTrials(n, CleanTraces(n, inputs), errs, func(int) (Plan, Injector) {
		return randomTrial(r, n, perLayer, c, sem)
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
// concurrent calls may share them.
func MonteCarloRange(n nn.Model, perLayer []int, c float64, sem core.CapSemantics, traces []*nn.Trace, seed uint64, base int, errs []float64) {
	sweepTrials(n, traces, errs, func(i int) (Plan, Injector) {
		return randomTrial(rng.NewStream(seed, uint64(base+i)), n, perLayer, c, sem)
	})
}

// randomTrial draws one Monte Carlo trial from r: a random plan with
// the distribution perLayer, then crashes (c == 0) or random bounded
// Byzantine values drawn from a split of r.
func randomTrial(r *rng.Rand, n nn.Model, perLayer []int, c float64, sem core.CapSemantics) (Plan, Injector) {
	plan := RandomNeuronPlan(r, n, perLayer)
	if c == 0 {
		return plan, Crash{}
	}
	return plan, RandomByzantine{C: c, Sem: sem, R: r.Split()}
}

// sweepTrials is the Monte Carlo lane loop: it sets errs[i] to trial
// i's largest error over the clean traces, loading BatchLanes trials at
// a time into one batched evaluator so each weight matrix streams once
// per group of trials. draw(i) supplies trial i's plan and injector and
// is called in trial order.
func sweepTrials(n nn.Model, traces []*nn.Trace, errs []float64, draw func(i int) (Plan, Injector)) {
	bp := CompileBatch(n, BatchLanes)
	var plans [BatchLanes]Plan
	var injs [BatchLanes]Injector
	var laneErr, laneWorst [BatchLanes]float64
	for i := 0; i < len(errs); i += BatchLanes {
		lanes := min(BatchLanes, len(errs)-i)
		for p := 0; p < lanes; p++ {
			plans[p], injs[p] = draw(i + p)
			laneWorst[p] = 0
		}
		bp.Reset(plans[:lanes])
		for _, tr := range traces {
			bp.ErrorsOnTrace(injs[:lanes], tr, laneErr[:lanes])
			for p := 0; p < lanes; p++ {
				if laneErr[p] > laneWorst[p] {
					laneWorst[p] = laneErr[p]
				}
			}
		}
		copy(errs[i:i+lanes], laneWorst[:lanes])
	}
}

// ProfileOf summarises per-trial max errors into a Profile — the shared
// tail of MonteCarlo and of executors that collect MonteCarloRange
// shards themselves.
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
