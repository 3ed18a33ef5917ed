package fault

import (
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// mcTestModels are the Monte Carlo loop's fixtures: a dense net and a
// sparse graph (the row-granular engine), each with a fault pattern
// that includes an empty and a saturated layer.
func mcTestModels() []struct {
	name     string
	m        nn.Model
	perLayer []int
} {
	dense, _ := batchTestNet(401)
	g := graph.NewSparse(rng.New(403), 4, []int{64, 64, 32}, activation.NewSigmoid(1), 0.05)
	return []struct {
		name     string
		m        nn.Model
		perLayer []int
	}{
		{"dense", dense, []int{2, 0, 5}},
		{"sparse", g, []int{3, 1, 0}},
	}
}

// TestTrialDrawMatchesReplay pins the lane loop's allocation-free draw
// to the public replay that perfbench and older callers use: for every
// trial t the plan equals RandomNeuronPlan(rng.NewStream(seed, t)) and
// the Byzantine values come from that stream's Split, on a draw buffer
// reused across trials as the loop reuses it.
func TestTrialDrawMatchesReplay(t *testing.T) {
	const seed = 77
	for _, tc := range mcTestModels() {
		bp := CompileBatch(tc.m, BatchLanes)
		d := &bp.trialState().draws[0]
		for trial := uint64(0); trial < 40; trial++ {
			d.stream.Seed(seed, trial)
			plan, inj := d.draw(&d.stream, tc.m, tc.perLayer, 0.7, core.DeviationCap)
			r := rng.NewStream(seed, trial)
			want := RandomNeuronPlan(r, tc.m, tc.perLayer)
			if len(plan.Neurons) != len(want.Neurons) || len(plan.Synapses) != 0 {
				t.Fatalf("%s trial %d: plan %v, want %v", tc.name, trial, plan, want)
			}
			for i := range want.Neurons {
				if plan.Neurons[i] != want.Neurons[i] {
					t.Fatalf("%s trial %d: plan %v, want %v", tc.name, trial, plan, want)
				}
			}
			byz, ok := inj.(*RandomByzantine)
			if !ok || byz.C != 0.7 || byz.Sem != core.DeviationCap {
				t.Fatalf("%s trial %d: injector %#v", tc.name, trial, inj)
			}
			split := r.Split()
			for i := 0; i < 6; i++ {
				if g, w := byz.R.Uint64(), split.Uint64(); g != w {
					t.Fatalf("%s trial %d: value stream draw %d = %d, Split gives %d", tc.name, trial, i, g, w)
				}
			}
		}
	}
}

// TestMonteCarloRangeMatchesScalarReplay checks the batched lane loop
// end to end against trials replayed one at a time on the full-level
// fused sweep (ErrorOn without a trace): same draws, bitwise the same
// worst error per trial, for crashes and random Byzantine values.
func TestMonteCarloRangeMatchesScalarReplay(t *testing.T) {
	const seed, base, trials = 91, 5, 21
	for _, tc := range mcTestModels() {
		inputs := make([][]float64, 3)
		r := rng.New(409)
		for i := range inputs {
			inputs[i] = make([]float64, tc.m.Width(0))
			r.Floats(inputs[i], 0, 1)
		}
		traces := CleanTraces(tc.m, inputs)
		for _, c := range []float64{0, 0.6} {
			errs := make([]float64, trials)
			CompileBatch(tc.m, 3).MonteCarloRange(tc.perLayer, c, core.DeviationCap, traces, seed, base, errs)
			for i := range errs {
				s := rng.NewStream(seed, uint64(base+i))
				cp := Compile(tc.m, RandomNeuronPlan(s, tc.m, tc.perLayer))
				var inj Injector = Crash{}
				if c != 0 {
					inj = RandomByzantine{C: c, Sem: core.DeviationCap, R: s.Split()}
				}
				want := 0.0
				for _, x := range inputs {
					want = max(want, cp.ErrorOn(inj, x))
				}
				if errs[i] != want {
					t.Fatalf("%s c=%v trial %d: lane loop %v, scalar replay %v", tc.name, c, base+i, errs[i], want)
				}
			}
		}
	}
}

// TestMonteCarloRangeSteadyStateAllocs: on a reused evaluator the Monte
// Carlo lane loop — draws, plan compiles with their row lists, and the
// sweep — allocates nothing.
func TestMonteCarloRangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get; the contract is measured without the detector")
	}
	for _, tc := range mcTestModels() {
		traces := CleanTraces(tc.m, [][]float64{make([]float64, tc.m.Width(0))})
		bp := CompileBatch(tc.m, BatchLanes)
		errs := make([]float64, 19)
		for _, c := range []float64{0, 0.5} {
			run := func() { bp.MonteCarloRange(tc.perLayer, c, core.DeviationCap, traces, 13, 0, errs) }
			run()
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("%s c=%v: %v allocs per MonteCarloRange, want 0", tc.name, c, allocs)
			}
		}
	}
}
