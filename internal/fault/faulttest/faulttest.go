// Package faulttest holds test-support oracles for the fault engines:
// slow, obviously-correct reference implementations that the fast
// engines are checked against, kept out of the production API.
package faulttest

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// ExhaustiveWorstCrashFlat enumerates every choice of perLayer[l-1]
// crashed neurons per layer l by flat index, evaluating each
// configuration with a full damaged sweep on the batched multi-lane
// engine. It is the reference oracle for the tree-structured search
// (fault.WorstCase): it shares no prefixes and never prunes, so its
// worst error is the ground truth the tree must reproduce bit-for-bit.
// Note its flat order varies the SHALLOWEST layer fastest, the reverse
// of tree order — under exact error ties the two engines may report
// different (both first-attaining in their own order) plans. Pruned is
// always 0: every configuration is evaluated.
func ExhaustiveWorstCrashFlat(n nn.Model, perLayer []int, inputs [][]float64, maxConfigs int64) (fault.ExhaustiveResult, error) {
	L := n.NumLayers()
	if len(perLayer) != L {
		return fault.ExhaustiveResult{}, fmt.Errorf("fault: perLayer has %d entries for %d layers", len(perLayer), L)
	}
	widths := make([]int, L)
	for l := 1; l <= L; l++ {
		widths[l-1] = n.Width(l)
	}
	total, err := fault.CountConfigurations(widths, perLayer)
	if err != nil {
		return fault.ExhaustiveResult{}, err
	}
	if total > maxConfigs {
		return fault.ExhaustiveResult{}, fmt.Errorf("fault: %d configurations exceed limit %d", total, maxConfigs)
	}

	// Materialise per-layer combination lists, then walk their cross
	// product by flat index so the work parallelises trivially.
	perLayerCombos := make([][][]int, L)
	for l := 0; l < L; l++ {
		var combos [][]int
		fault.Combinations(n.Width(l+1), perLayer[l], func(idx []int) {
			combos = append(combos, append([]int(nil), idx...))
		})
		perLayerCombos[l] = combos
	}

	// fillPlan rebuilds the configuration for a flat index into a
	// reusable buffer — the enumeration loop allocates only when a new
	// worst case is found.
	fillPlan := func(buf []fault.NeuronFault, flat int64) []fault.NeuronFault {
		buf = buf[:0]
		for l := 0; l < L; l++ {
			count := int64(len(perLayerCombos[l]))
			choice := perLayerCombos[l][flat%count]
			flat /= count
			for _, idx := range choice {
				buf = append(buf, fault.NeuronFault{Layer: l + 1, Index: idx})
			}
		}
		return buf
	}

	// The clean traces are shared by every configuration: evaluate the
	// input sweep once, then each configuration costs one damaged sweep
	// per input.
	traces := fault.CleanTraces(n, inputs)

	type worst struct {
		err  float64
		plan fault.Plan
	}
	workers := parallel.Workers()
	partial := make([]worst, workers)
	chunk := (total + int64(workers) - 1) / int64(workers)
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(slot int) {
			defer func() { done <- struct{}{} }()
			lo := int64(slot) * chunk
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			// Each worker owns a batched evaluator: configurations are
			// loaded fault.BatchLanes at a time and every clean trace is swept
			// once per group, so each weight matrix streams once per
			// fault.BatchLanes configurations instead of once per configuration.
			local := worst{}
			bp := fault.CompileBatch(n, fault.BatchLanes)
			var bufs [fault.BatchLanes][]fault.NeuronFault
			var plans [fault.BatchLanes]fault.Plan
			var injs [fault.BatchLanes]fault.Injector
			var errs, laneWorst [fault.BatchLanes]float64
			for p := range injs {
				injs[p] = fault.Crash{}
			}
			for flat := lo; flat < hi; flat += fault.BatchLanes {
				lanes := fault.BatchLanes
				if rem := hi - flat; rem < int64(lanes) {
					lanes = int(rem)
				}
				for p := 0; p < lanes; p++ {
					bufs[p] = fillPlan(bufs[p], flat+int64(p))
					plans[p] = fault.Plan{Neurons: bufs[p]}
					laneWorst[p] = 0
				}
				bp.Reset(plans[:lanes])
				for _, tr := range traces {
					bp.ErrorsOnTrace(injs[:lanes], tr, errs[:lanes])
					for p := 0; p < lanes; p++ {
						if errs[p] > laneWorst[p] {
							laneWorst[p] = errs[p]
						}
					}
				}
				// Lanes are visited in flat order, and only a strictly
				// larger error displaces the incumbent — exactly the
				// scalar loop's first-attaining-configuration semantics.
				for p := 0; p < lanes; p++ {
					if laneWorst[p] > local.err {
						local.err = laneWorst[p]
						local.plan = fault.Plan{Neurons: append([]fault.NeuronFault(nil), bufs[p]...)}
					}
				}
			}
			partial[slot] = local
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	res := fault.ExhaustiveResult{Configurations: total, Visited: total}
	// Workers cover ascending flat-index shards, so merging in slot
	// order with a STRICT comparison keeps the first-attaining
	// configuration: a later shard's equal-error plan must not displace
	// an earlier shard's.
	for _, p := range partial {
		if p.err > res.WorstError {
			res.WorstError = p.err
			res.WorstPlan = p.plan
		}
	}
	return res, nil
}
