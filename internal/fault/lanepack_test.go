package fault_test

import (
	"fmt"
	"testing"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// TestMonteCarloLanePackingsMatchScalarReplay pins the Monte Carlo lane
// order — (trial, input) lanes in trial-major order, a trial's lanes
// sharing one compiled plan — against trials replayed one at a time on
// the full-level fused sweep (ErrorOn without a trace). With 1, 3, 4,
// 8, 9 and 20 inputs on BatchLanes lanes a batch holds several trials,
// one whole trial, or part of one, and trials span batches. It runs
// BatchPlan.MonteCarloRange in one call and in ranges split mid-batch
// on a reused evaluator, and MonteCarlo on one sequential stream, on a
// dense net, a sparse graph, a skip graph and a conv net, for crashes
// and random Byzantine values: every trial must equal its replay
// bitwise, which for random values holds only if lane j of a trial
// draws from the trial's value stream exactly where the replay's j-th
// evaluation does.
func TestMonteCarloLanePackingsMatchScalarReplay(t *testing.T) {
	const seed, base, trials = 95, 3, 11
	r := rng.New(421)
	act := activation.NewSigmoid(1)
	cnv, err := conv.NewRandom(r, 10, []int{3, 3}, []int{2, 2}, act, 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name     string
		m        nn.Model
		perLayer []int
	}{
		{"dense", nn.NewRandom(r, nn.Config{InputDim: 3, Widths: []int{9, 7, 5}, Act: act, Bias: true}, 0.6), []int{2, 0, 3}},
		{"sparse", graph.NewSparse(r, 4, []int{64, 64, 32}, act, 0.05), []int{3, 1, 0}},
		{"skip", graph.NewSmallWorld(r, 4, []int{24, 24, 16}, act, 2, 0.5), []int{2, 2, 1}},
		{"conv", cnv, []int{2, 1}},
	}
	for _, tc := range models {
		for _, n := range []int{1, 3, 4, 8, 9, 20} {
			inputs := make([][]float64, n)
			for i := range inputs {
				inputs[i] = make([]float64, tc.m.Width(0))
				r.Floats(inputs[i], 0, 1)
			}
			traces := fault.CleanTraces(tc.m, inputs)
			for _, c := range []float64{0, 0.6} {
				name := fmt.Sprintf("%s inputs=%d c=%v", tc.name, n, c)
				// replay evaluates one trial drawn from s one input at a
				// time, as a scalar caller would.
				replay := func(s *rng.Rand) float64 {
					cp := fault.Compile(tc.m, fault.RandomNeuronPlan(s, tc.m, tc.perLayer))
					var inj fault.Injector = fault.Crash{}
					if c != 0 {
						inj = fault.RandomByzantine{C: c, Sem: core.DeviationCap, R: s.Split()}
					}
					worst := 0.0
					for _, x := range inputs {
						worst = max(worst, cp.ErrorOn(inj, x))
					}
					return worst
				}
				want := make([]float64, trials)
				for i := range want {
					want[i] = replay(rng.NewStream(seed, uint64(base+i)))
				}
				bp := fault.CompileBatch(tc.m, fault.BatchLanes)
				whole := make([]float64, trials)
				bp.MonteCarloRange(tc.perLayer, c, core.DeviationCap, traces, seed, base, whole)
				split := make([]float64, trials)
				for _, rg := range [][2]int{{0, 3}, {3, 8}, {8, trials}} {
					bp.MonteCarloRange(tc.perLayer, c, core.DeviationCap, traces, seed, base+rg[0], split[rg[0]:rg[1]])
				}
				for i := range want {
					if whole[i] != want[i] || split[i] != want[i] {
						t.Fatalf("%s trial %d: one range %v, split ranges %v, scalar replay %v", name, base+i, whole[i], split[i], want[i])
					}
				}
				seq := rng.New(seed)
				for i := range want {
					want[i] = replay(seq)
				}
				got := fault.MonteCarlo(tc.m, tc.perLayer, c, core.DeviationCap, inputs, trials, rng.New(seed))
				if w := fault.ProfileOf(want); got != w {
					t.Fatalf("%s: MonteCarlo profile %+v, scalar replay %+v", name, got, w)
				}
			}
		}
	}
}
