package fault

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/parallel"
)

// MaxError returns the largest |Fneu(x) - Ffail(x)| over the given
// inputs: clean traces are computed once (in parallel), then the
// damaged sweeps run through the batched multi-lane engine — the plan
// is fixed and the lanes are inputs, so each weight matrix streams once
// per BatchLanes inputs. The injector must be safe for concurrent use
// (Crash and Byzantine are; RandomByzantine is not — use MaxErrorSeq).
func MaxError(n nn.Model, p Plan, inj Injector, inputs [][]float64) float64 {
	traces := CleanTraces(n, inputs)
	errs := make([]float64, len(inputs))
	parallel.ForChunked(len(inputs), BatchLanes, func(lo, hi int) {
		bp := CompileBatch(n, BatchLanes)
		var injs [BatchLanes]Injector
		for i := range injs {
			injs[i] = inj
		}
		for i := lo; i < hi; i += BatchLanes {
			k := hi - i
			if k > BatchLanes {
				k = BatchLanes
			}
			bp.ResetShared(p, k)
			bp.ErrorsOnTraces(injs[:k], traces[i:i+k], errs[i:i+k])
		}
	})
	worst := 0.0
	for _, e := range errs {
		if e > worst {
			worst = e
		}
	}
	return worst
}

// MaxErrorSeq is the sequential variant for stateful injectors: the
// inputs' clean traces are computed once and MaxErrorOnTraces runs the
// damaged sweeps in input order.
func MaxErrorSeq(n nn.Model, p Plan, inj Injector, inputs [][]float64) float64 {
	return Compile(n, p).MaxErrorOnTraces(inj, CleanTraces(n, inputs), false)
}

// MaxErrorOnTraces returns the largest |Fneu - Ffail| of the compiled
// plan over the inputs whose clean traces are given: only the damaged
// sweeps run. A deterministic injector (safe for concurrent use) is
// measured over the traces in parallel; a stateful one runs through
// them in order, so its draws are reproducible for a given seed. It is
// the one inject measurement of the CLI and the query service.
func (cp *CompiledPlan) MaxErrorOnTraces(inj Injector, traces []*nn.Trace, deterministic bool) float64 {
	if deterministic {
		return parallel.MaxFloat64(len(traces), func(i int) float64 {
			return cp.ErrorOnTrace(inj, traces[i])
		})
	}
	worst := 0.0
	for _, tr := range traces {
		if e := cp.ErrorOnTrace(inj, tr); e > worst {
			worst = e
		}
	}
	return worst
}

// WorstSignError searches all 2^k sign assignments of the plan's Byzantine
// deviations (k = #neuron faults + #synapse faults) and returns the
// largest error over the inputs. It refuses plans with more than
// maxSignBits faults to avoid accidental exponential blow-ups; use
// MaxError with heuristic signs beyond that.
func WorstSignError(n nn.Model, p Plan, base Byzantine, inputs [][]float64) float64 {
	const maxSignBits = 16
	k := len(p.Neurons) + len(p.Synapses)
	if k > maxSignBits {
		panic(fmt.Sprintf("fault: WorstSignError with %d faults (max %d)", k, maxSignBits))
	}
	patterns := 1 << k
	cp := Compile(n, p)
	traces := CleanTraces(n, inputs)
	return parallel.MaxFloat64(patterns, func(bits int) float64 {
		inj := Byzantine{
			C:       base.C,
			Sem:     base.Sem,
			Sign:    make(map[NeuronFault]float64, len(p.Neurons)),
			SynSign: make(map[SynapseFault]float64, len(p.Synapses)),
		}
		for i, f := range p.Neurons {
			if bits&(1<<i) != 0 {
				inj.Sign[f] = -1
			} else {
				inj.Sign[f] = 1
			}
		}
		for i, f := range p.Synapses {
			if bits&(1<<(len(p.Neurons)+i)) != 0 {
				inj.SynSign[f] = -1
			} else {
				inj.SynSign[f] = 1
			}
		}
		return cp.MaxErrorOnTraces(inj, traces, false)
	})
}

// Combinations invokes fn with every k-subset of [0, n), reusing a single
// buffer; fn must not retain it. It is the building block of the
// exhaustive configuration search.
func Combinations(n, k int, fn func(idx []int)) {
	if k < 0 || k > n {
		panic("fault: Combinations k out of range")
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	if k == 0 {
		fn(idx)
		return
	}
	for {
		fn(idx)
		// Advance to the next combination in lexicographic order.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// CountConfigurations returns Π_l C(N_l, f_l), the number of distinct
// failure configurations for the given distribution — the combinatorial
// explosion the paper's Fep avoids. Returns MaxInt64 on overflow, and
// an error (not a panic — distributions arrive from serve requests) on
// a length mismatch.
func CountConfigurations(widths, perLayer []int) (int64, error) {
	if len(widths) != len(perLayer) {
		return 0, fmt.Errorf("fault: distribution has %d entries for %d layers", len(perLayer), len(widths))
	}
	total := int64(1)
	for l, n := range widths {
		c := binomial(n, perLayer[l])
		if c < 0 || total > math.MaxInt64/max64(c, 1) {
			return math.MaxInt64, nil
		}
		total *= c
	}
	return total, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := int64(1)
	for i := 1; i <= k; i++ {
		if res > math.MaxInt64/int64(n-k+i) {
			return -1
		}
		res = res * int64(n-k+i) / int64(i)
	}
	return res
}

// ExhaustiveResult reports an exhaustive worst-case search.
type ExhaustiveResult struct {
	// WorstError is the maximal |Fneu - Ffail| over all configurations
	// and inputs.
	WorstError float64
	// WorstPlan attains it.
	WorstPlan Plan
	// Configurations is the number of failure configurations covered.
	Configurations int64
	// Visited counts configurations actually evaluated and Pruned the
	// ones skipped by the tree engine's sound branch-and-bound
	// (Visited + Pruned == Configurations for a completed search).
	Visited int64
	Pruned  int64
}
