package fault

import (
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// batchTestNet builds a dense net with biases so every kernel path
// (bias add, skip lists, synapse layers) is exercised.
func batchTestNet(seed uint64) (*nn.Network, [][]float64) {
	r := rng.New(seed)
	net := nn.NewRandom(r, nn.Config{InputDim: 3, Widths: []int{9, 7, 5}, Act: activation.NewSigmoid(1), Bias: true}, 0.6)
	inputs := make([][]float64, 6)
	for i := range inputs {
		x := make([]float64, 3)
		r.Floats(x, 0, 1)
		inputs[i] = x
	}
	return net, inputs
}

// TestBatchMatchesScalarAllModels is the tentpole's ground-truth gate:
// for EVERY registered fault model, the batched engine's per-lane
// errors must be bit-identical to the one-at-a-time oracle —
// full-capacity batches, partial batches, and lanes with different
// divergence layers all included. Stochastic models run on twin-seeded
// streams: each lane's injector owns its rng, so lane interleaving must
// not perturb any lane's draw sequence.
func TestBatchMatchesScalarAllModels(t *testing.T) {
	net, inputs := batchTestNet(101)
	traces := CleanTraces(net, inputs)
	r := rng.New(103)

	// Lane plans with deliberately mixed divergence: an empty plan
	// (never diverges), a deep-only plan, shallow plans, and plans with
	// synapse faults either side of the output stage.
	plans := []Plan{
		{},
		{Neurons: []NeuronFault{{Layer: 3, Index: 4}}},
		RandomNeuronPlan(r, net, []int{2, 1, 1}),
		{Neurons: []NeuronFault{{Layer: 1, Index: 0}, {Layer: 1, Index: 8}}},
		{Synapses: []SynapseFault{{Layer: 4, To: 0, From: 3}}},
		{Neurons: []NeuronFault{{Layer: 2, Index: 6}},
			Synapses: []SynapseFault{{Layer: 1, To: 2, From: 1}, {Layer: 3, To: 1, From: 5}}},
		RandomNeuronPlan(r, net, []int{1, 1, 0}),
		RandomNeuronPlan(r, net, []int{3, 2, 2}),
	}

	for _, m := range Models() {
		build := func(seed uint64) Injector {
			inj, err := m.New(Params{C: 0.8, Sem: core.DeviationCap, Value: 0.4, Prob: 0.5, Bits: 8, Bit: 6, Net: net, R: rng.New(seed)})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			return inj
		}
		for _, lanes := range []int{1, 3, len(plans)} {
			bp := CompileBatch(net, len(plans))
			bp.Reset(plans[:lanes])
			// Stochastic injectors advance their rng across traces, so
			// the scalar oracle replays the whole trace sweep per lane
			// on a twin-seeded injector — same visit order, same draws.
			injs := make([]Injector, lanes)
			oracle := make([]Injector, lanes)
			scalars := make([]*CompiledPlan, lanes)
			for p := 0; p < lanes; p++ {
				injs[p] = build(uint64(1000 + p))
				oracle[p] = build(uint64(1000 + p))
				scalars[p] = Compile(net, plans[p])
			}
			out := make([]float64, lanes)
			for _, tr := range traces {
				bp.ErrorsOnTrace(injs, tr, out)
				for p := 0; p < lanes; p++ {
					want := scalars[p].ErrorOnTrace(oracle[p], tr)
					if out[p] != want {
						t.Fatalf("%s lanes=%d lane %d: batched %v != scalar %v", m.Name, lanes, p, out[p], want)
					}
				}
			}
		}
	}
}

// TestBatchResetSharedMatchesScalar pins the input-batching axis
// (MaxError's configuration: one plan, many traces per call).
func TestBatchResetSharedMatchesScalar(t *testing.T) {
	net, inputs := batchTestNet(113)
	traces := CleanTraces(net, inputs)
	r := rng.New(127)
	plan := RandomNeuronPlan(r, net, []int{2, 2, 1})
	cp := Compile(net, plan)
	inj := Crash{}

	bp := CompileBatch(net, 4)
	injs := []Injector{inj, inj, inj, inj}
	out := make([]float64, 4)
	for i := 0; i < len(traces); i += 4 {
		k := len(traces) - i
		if k > 4 {
			k = 4
		}
		bp.ResetShared(plan, k)
		bp.ErrorsOnTraces(injs[:k], traces[i:i+k], out[:k])
		for p := 0; p < k; p++ {
			if want := cp.ErrorOnTrace(inj, traces[i+p]); out[p] != want {
				t.Fatalf("trace %d: batched %v != scalar %v", i+p, out[p], want)
			}
		}
	}
}

// TestBatchedPathsMatchScalarSweeps pins the rewired public entry
// points end to end: MaxError against MaxErrorSeq, MaxErrorSeq (which
// measures over clean traces) against the fused trace-free ErrorOn
// sweep for every registered model, and MonteCarlo against a scalar
// replay of its historical trial loop — same seed, same draws,
// identical profile.
func TestBatchedPathsMatchScalarSweeps(t *testing.T) {
	net, inputs := batchTestNet(131)
	r := rng.New(137)
	plan := RandomNeuronPlan(r, net, []int{2, 1, 1})
	if got, want := MaxError(net, plan, Crash{}, inputs), MaxErrorSeq(net, plan, Crash{}, inputs); got != want {
		t.Fatalf("MaxError batched %v != sequential %v", got, want)
	}

	// Stochastic models run on twin-seeded streams over repeated
	// sweeps, so both sides must draw in the same order. The skip
	// graph's damaged sweeps take the row path, which has its own.
	var skip *graph.Net
	for skip == nil || nn.IsLayered(skip) {
		skip = graph.NewSmallWorld(r, 3, []int{10, 8, 6}, activation.NewSigmoid(1), 2, 0.6)
	}
	for _, m := range []nn.Model{net, skip} {
		neurons := RandomNeuronPlan(r, m, []int{2, 1, 1})
		synapses := RandomSynapsePlan(r, m, []int{1, 1, 0, 1})
		mixed := RandomSynapsePlan(r, m, []int{1, 0, 2, 1})
		mixed.Neurons = RandomNeuronPlan(r, m, []int{1, 1, 0}).Neurons
		for _, fm := range Models() {
			build := func() Injector {
				inj, err := fm.New(Params{C: 0.8, Sem: core.DeviationCap, Value: 0.4, Prob: 0.5, Bits: 8, Bit: 6, Net: m, R: rng.New(211)})
				if err != nil {
					t.Fatalf("%s: %v", fm.Name, err)
				}
				return inj
			}
			for pi, p := range []Plan{neurons, synapses, mixed} {
				inj, ref := build(), build()
				cp := Compile(m, p)
				for draw := 0; draw < 3; draw++ {
					want := 0.0
					for _, x := range inputs {
						if e := cp.ErrorOn(ref, x); e > want {
							want = e
						}
					}
					if got := MaxErrorSeq(m, p, inj, inputs); got != want {
						t.Fatalf("%T %s plan %d draw %d: MaxErrorSeq %v != ErrorOn sweep %v", m, fm.Name, pi, draw, got, want)
					}
				}
			}
		}
	}

	const trials = 37 // not a multiple of BatchLanes: exercises the tail group
	perLayer := []int{1, 1, 1}
	got := MonteCarlo(net, perLayer, 0.9, core.DeviationCap, inputs, trials, rng.New(139))

	// Scalar replay of the pre-batching MonteCarlo loop.
	traces := CleanTraces(net, inputs)
	rr := rng.New(139)
	errs := make([]float64, trials)
	for t2 := 0; t2 < trials; t2++ {
		p := RandomNeuronPlan(rr, net, perLayer)
		inj := Injector(RandomByzantine{C: 0.9, Sem: core.DeviationCap, R: rr.Split()})
		cp := Compile(net, p)
		worst := 0.0
		for _, tr := range traces {
			if e := cp.ErrorOnTrace(inj, tr); e > worst {
				worst = e
			}
		}
		errs[t2] = worst
	}
	want := ProfileOf(errs)
	if got.Stats != want.Stats || got.Q90 != want.Q90 || got.Q99 != want.Q99 {
		t.Fatalf("MonteCarlo batched profile %+v != scalar replay %+v", got, want)
	}
}

// TestBatchSteadyStateAllocs extends the zero-allocation contract to
// the batched engine: once compiled and loaded, Reset + ErrorsOnTrace
// must not allocate.
func TestBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get; the contract is measured without the detector")
	}
	net, inputs := batchTestNet(149)
	traces := CleanTraces(net, inputs)
	r := rng.New(151)
	plans := make([]Plan, BatchLanes)
	for p := range plans {
		plans[p] = RandomNeuronPlan(r, net, []int{1, 1, 1})
	}
	bp := CompileBatch(net, BatchLanes)
	injs := make([]Injector, BatchLanes)
	for p := range injs {
		injs[p] = Crash{}
	}
	out := make([]float64, BatchLanes)
	run := func() {
		bp.Reset(plans)
		for _, tr := range traces {
			bp.ErrorsOnTrace(injs, tr, out)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("batched sweep: %v allocs per run, want 0", allocs)
	}
}

// TestBatchCapacityPanics pins the overload panics.
func TestBatchCapacityPanics(t *testing.T) {
	net, _ := batchTestNet(157)
	bp := CompileBatch(net, 2)
	if bp.Lanes() != 2 {
		t.Fatalf("Lanes() = %d, want 2", bp.Lanes())
	}
	for _, run := range []func(){
		func() { bp.Reset(make([]Plan, 3)) },
		func() { bp.ResetShared(Plan{}, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on over-capacity load")
				}
			}()
			run()
		}()
	}
}
