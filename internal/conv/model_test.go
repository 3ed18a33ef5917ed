package conv

import (
	"math"
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

// test1D builds a random biased two-layer 1-D net and its lowering.
func test1D(t *testing.T, seed uint64) (*Net, *nn.Network) {
	t.Helper()
	n, err := NewRandom(rng.New(seed), 14, []int{3, 2}, []int{2, 3}, activation.NewSigmoid(1), 0.7, true)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Lower(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, dense
}

// test2D builds a random biased two-layer 2-D net and its lowering.
func test2D(t *testing.T, seed uint64) (*Net2D, *nn.Network) {
	t.Helper()
	n, err := NewRandom2D(rng.New(seed), 7, 7, []int{3, 2}, []int{2, 2}, activation.NewSigmoid(1), 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Lower2D(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, dense
}

// TestModelGeometryMatchesLowered pins Width/MaxWeight/Weight of the
// virtual dense connectivity against the materialised lowering.
func TestModelGeometryMatchesLowered(t *testing.T) {
	n1, d1 := test1D(t, 1)
	n2, d2 := test2D(t, 2)
	for _, tc := range []struct {
		name  string
		model nn.Model
		dense *nn.Network
	}{
		{"1d", n1, d1},
		{"2d", n2, d2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, dense := tc.model, tc.dense
			if m.NumLayers() != dense.NumLayers() {
				t.Fatalf("NumLayers %d != %d", m.NumLayers(), dense.NumLayers())
			}
			for l := 0; l <= m.NumLayers()+1; l++ {
				if m.Width(l) != dense.Width(l) {
					t.Fatalf("Width(%d) %d != %d", l, m.Width(l), dense.Width(l))
				}
			}
			for l := 1; l <= m.NumLayers()+1; l++ {
				if m.MaxWeight(l) != dense.MaxWeight(l) {
					t.Fatalf("MaxWeight(%d) %v != %v", l, m.MaxWeight(l), dense.MaxWeight(l))
				}
				rows, cols := dense.Width(l), dense.Width(l-1)
				if l == m.NumLayers()+1 {
					rows = 1
				}
				for to := 0; to < rows; to++ {
					for from := 0; from < cols; from++ {
						if m.Weight(l, to, from) != dense.Weight(l, to, from) {
							t.Fatalf("Weight(%d,%d,%d) %v != %v", l, to, from,
								m.Weight(l, to, from), dense.Weight(l, to, from))
						}
					}
				}
			}
			cs, ds := core.ShapeOfModel(m), core.ShapeOf(dense)
			for i := range cs.MaxW {
				if cs.MaxW[i] != ds.MaxW[i] {
					t.Fatalf("shape MaxW[%d] %v != %v", i, cs.MaxW[i], ds.MaxW[i])
				}
			}
		})
	}
}

// TestForwardIntoBitIdenticalToLowered is the native-engine contract:
// the conv forward pass must reproduce the lowered dense network's
// arithmetic bit for bit (not approximately).
func TestForwardIntoBitIdenticalToLowered(t *testing.T) {
	n1, d1 := test1D(t, 3)
	n2, d2 := test2D(t, 4)
	for _, tc := range []struct {
		name  string
		model nn.Model
		dense *nn.Network
		dim   int
	}{
		{"1d", n1, d1, 14},
		{"2d", n2, d2, 49},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(5)
			sc := nn.NewScratch(tc.model)
			dsc := nn.NewScratch(tc.dense)
			for trial := 0; trial < 50; trial++ {
				x := make([]float64, tc.dim)
				r.Floats(x, 0, 1)
				native := nn.ForwardModel(tc.model, sc, x)
				lowered := nn.ForwardModel(tc.dense, dsc, x)
				if native != lowered {
					t.Fatalf("trial %d: native %v != lowered %v", trial, native, lowered)
				}
			}
		})
	}
}

// TestForwardIntoZeroAllocs pins the zero-allocation contract of the
// native conv forward pass (1-D and 2-D).
func TestForwardIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are a property of the uninstrumented build")
	}
	n1, _ := test1D(t, 6)
	n2, _ := test2D(t, 7)
	x1 := make([]float64, 14)
	x2 := make([]float64, 49)
	rng.New(8).Floats(x1, 0, 1)
	rng.New(9).Floats(x2, 0, 1)
	sc1 := nn.NewScratch(n1)
	sc2 := nn.NewScratch(n2)
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink += nn.ForwardModel(n1, sc1, x1) }); a != 0 {
		t.Fatalf("1-D ForwardModel allocates %v per run", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink += nn.ForwardModel(n2, sc2, x2) }); a != 0 {
		t.Fatalf("2-D ForwardModel allocates %v per run", a)
	}
	_ = sink
}

// TestFaultedForwardZeroAllocs pins the compiled-plan damaged pass as
// allocation-free on native conv models.
func TestFaultedForwardZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are a property of the uninstrumented build")
	}
	n2, _ := test2D(t, 10)
	plan := fault.AdversarialNeuronPlan(n2, []int{2, 1})
	cp := fault.Compile(n2, plan)
	x := make([]float64, 49)
	rng.New(11).Floats(x, 0, 1)
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink += cp.Forward(fault.Crash{}, x) }); a != 0 {
		t.Fatalf("native conv CompiledPlan.Forward allocates %v per run", a)
	}
	var inj fault.Injector = fault.Byzantine{C: 0.5}
	if a := testing.AllocsPerRun(100, func() { sink += cp.ErrorOn(inj, x) }); a != 0 {
		t.Fatalf("native conv CompiledPlan.ErrorOn allocates %v per run", a)
	}
	_ = sink
}

// modelParams instantiates shared registry parameters against m.
func modelParams(m nn.Model, seed uint64) fault.Params {
	return fault.Params{
		C:     0.6,
		Sem:   core.DeviationCap,
		Value: 0.85,
		Prob:  0.6,
		Bits:  8,
		Bit:   6,
		Net:   m,
		R:     rng.New(seed),
	}
}

// TestEveryModelNativeEqualsLowered is the oracle test of the refactor:
// for EVERY registered fault model, injecting the native conv model is
// bit-identical to injecting the lowered dense network with the same
// plan — neuron faults, virtual-dense synapse faults, and shared
// kernel-value faults alike. Stochastic models run with identically
// seeded streams so the draw sequences match.
func TestEveryModelNativeEqualsLowered(t *testing.T) {
	n1, d1 := test1D(t, 12)
	n2, d2 := test2D(t, 13)
	type pair struct {
		name  string
		model nn.Model
		dense *nn.Network
		dim   int
		plans map[string]fault.Plan
	}
	pairs := []pair{
		{
			name: "1d", model: n1, dense: d1, dim: 14,
			plans: map[string]fault.Plan{
				"neurons":  fault.AdversarialNeuronPlan(n1, []int{2, 2}),
				"synapses": fault.RandomSynapsePlan(rng.New(14), n1, []int{2, 1, 1}),
				"kernel":   n1.KernelPlan(KernelFault{Layer: 1, Filter: 1, Index: 0}, KernelFault{Layer: 2, Filter: 0, Index: 1}),
				"mixed": {
					Neurons:  fault.AdversarialNeuronPlan(n1, []int{1, 1}).Neurons,
					Synapses: n1.KernelPlan(KernelFault{Layer: 1, Filter: 0, Index: 2}).Synapses,
				},
			},
		},
		{
			name: "2d", model: n2, dense: d2, dim: 49,
			plans: map[string]fault.Plan{
				"neurons":  fault.AdversarialNeuronPlan(n2, []int{3, 2}),
				"synapses": fault.RandomSynapsePlan(rng.New(15), n2, []int{2, 2, 1}),
				"kernel": n2.KernelPlan(
					KernelFault2D{Layer: 1, Filter: 0, Channel: 0, Row: 1, Col: 2},
					KernelFault2D{Layer: 2, Filter: 1, Channel: 1, Row: 0, Col: 0}),
			},
		},
	}
	inputs := metrics.RandomPoints(rng.New(16), 49, 8)
	for _, pr := range pairs {
		for planName, plan := range pr.plans {
			if err := plan.Validate(pr.model); err != nil {
				t.Fatalf("%s/%s: plan invalid on conv model: %v", pr.name, planName, err)
			}
			if err := plan.Validate(pr.dense); err != nil {
				t.Fatalf("%s/%s: plan invalid on lowered dense: %v", pr.name, planName, err)
			}
			ncp := fault.Compile(pr.model, plan)
			dcp := fault.Compile(pr.dense, plan)
			for _, m := range fault.Models() {
				t.Run(pr.name+"/"+planName+"/"+m.Name, func(t *testing.T) {
					// Identically seeded streams: the native and lowered
					// sweeps draw the same random sequences.
					seed := uint64(17)
					nativeInj, err := m.New(modelParams(pr.model, seed))
					if err != nil {
						t.Fatal(err)
					}
					loweredInj, err := m.New(modelParams(pr.dense, seed))
					if err != nil {
						t.Fatal(err)
					}
					for trial, full := range inputs {
						x := full[:pr.dim]
						nf := ncp.Forward(nativeInj, x)
						df := dcp.Forward(loweredInj, x)
						if nf != df {
							t.Fatalf("trial %d: native Ffail %v != lowered %v", trial, nf, df)
						}
						ne := ncp.ErrorOn(nativeInj, x)
						de := dcp.ErrorOn(loweredInj, x)
						if ne != de {
							t.Fatalf("trial %d: native error %v != lowered %v", trial, ne, de)
						}
					}
				})
			}
		}
	}
}

// TestErrorOnTraceNativeEqualsLowered covers the trace-amortised sweep
// (the Monte Carlo / exhaustive-search hot path) on conv models.
func TestErrorOnTraceNativeEqualsLowered(t *testing.T) {
	n2, d2 := test2D(t, 18)
	inputs := metrics.RandomPoints(rng.New(19), 49, 6)
	ntr := fault.CleanTraces(n2, inputs)
	dtr := fault.CleanTraces(d2, inputs)
	plan := fault.AdversarialNeuronPlan(n2, []int{2, 1})
	ncp := fault.Compile(n2, plan)
	dcp := fault.Compile(d2, plan)
	for i := range inputs {
		if ntr[i].Output != dtr[i].Output {
			t.Fatalf("input %d: clean trace output %v != %v", i, ntr[i].Output, dtr[i].Output)
		}
		ne := ncp.ErrorOnTrace(fault.Crash{}, ntr[i])
		de := dcp.ErrorOnTrace(fault.Crash{}, dtr[i])
		if ne != de {
			t.Fatalf("input %d: native trace error %v != lowered %v", i, ne, de)
		}
	}
}

// TestAdversarialPlanAgreesWithLowered pins plan construction through
// the Model interface: the heaviest-weight adversary must pick the same
// neurons on the conv model (via the O(R) OutgoingScorer fast path) as
// on its lowering (via the generic dense scan).
func TestAdversarialPlanAgreesWithLowered(t *testing.T) {
	n1, d1 := test1D(t, 20)
	n2, d2 := test2D(t, 23)
	for _, tc := range []struct {
		name         string
		model, dense nn.Model
	}{
		{"1d", n1, d1},
		{"2d", n2, d2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := fault.AdversarialNeuronPlan(tc.model, []int{2, 1})
			b := fault.AdversarialNeuronPlan(tc.dense, []int{2, 1})
			if len(a.Neurons) != len(b.Neurons) {
				t.Fatalf("plan sizes differ: %d vs %d", len(a.Neurons), len(b.Neurons))
			}
			for i := range a.Neurons {
				if a.Neurons[i] != b.Neurons[i] {
					t.Fatalf("neuron %d differs: %v vs %v", i, a.Neurons[i], b.Neurons[i])
				}
			}
		})
	}
}

// TestOutgoingWeightMatchesGenericScan pins the OutgoingScorer fast
// path bit-for-bit against the generic virtual-dense scan it replaces,
// for every neuron of every layer.
func TestOutgoingWeightMatchesGenericScan(t *testing.T) {
	n1, _ := test1D(t, 24)
	n2, _ := test2D(t, 25)
	genericScan := func(m nn.Model, l, idx int) float64 {
		if l == m.NumLayers() {
			return math.Abs(m.Weight(l+1, 0, idx))
		}
		best := 0.0
		for j := 0; j < m.Width(l+1); j++ {
			if w := math.Abs(m.Weight(l+1, j, idx)); w > best {
				best = w
			}
		}
		return best
	}
	for _, tc := range []struct {
		name   string
		model  nn.Model
		scorer fault.OutgoingScorer
	}{
		{"1d", n1, n1},
		{"2d", n2, n2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for l := 1; l <= tc.model.NumLayers(); l++ {
				for idx := 0; idx < tc.model.Width(l); idx++ {
					fast := tc.scorer.OutgoingWeight(l, idx)
					slow := genericScan(tc.model, l, idx)
					if fast != slow {
						t.Fatalf("layer %d neuron %d: fast %v != generic %v", l, idx, fast, slow)
					}
				}
			}
		})
	}
}

// TestKernelSynapsesRejectsBadCoordinates pins the validation: a
// mis-addressed shared weight must panic loudly, never expand to
// synapses the kernel does not own (a silent no-op injection would
// report a meaningless robustness result).
func TestKernelSynapsesRejectsBadCoordinates(t *testing.T) {
	n1, _ := test1D(t, 26)
	n2, _ := test2D(t, 27)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: bad coordinates accepted", name)
			}
		}()
		f()
	}
	mustPanic("1d layer", func() { n1.KernelSynapses(KernelFault{Layer: 9}, nil) })
	mustPanic("1d filter", func() { n1.KernelSynapses(KernelFault{Layer: 1, Filter: 9}, nil) })
	mustPanic("1d index", func() { n1.KernelSynapses(KernelFault{Layer: 1, Index: 9}, nil) })
	mustPanic("2d layer", func() { n2.KernelSynapses(KernelFault2D{Layer: 0}, nil) })
	mustPanic("2d filter", func() { n2.KernelSynapses(KernelFault2D{Layer: 1, Filter: 9}, nil) })
	mustPanic("2d channel", func() { n2.KernelSynapses(KernelFault2D{Layer: 1, Channel: 9}, nil) })
	mustPanic("2d window", func() { n2.KernelSynapses(KernelFault2D{Layer: 1, Row: 3}, nil) })
}

// TestKernelFaultBoundSound checks the receptive-field certificate
// against native kernel-fault injection: a crashed shared kernel value
// is a crash on its tied synapse instances, and the measured error must
// sit below SynapseFep on the conv shape.
func TestKernelFaultBoundSound(t *testing.T) {
	n1, _ := test1D(t, 21)
	s := core.ShapeOfModel(n1)
	plan := n1.KernelPlan(KernelFault{Layer: 1, Filter: 0, Index: 1})
	synFaults := make([]int, n1.NumLayers()+1)
	synFaults[0] = len(plan.Synapses)
	crash, ok := fault.Lookup("crash")
	if !ok {
		t.Fatal("crash model unregistered")
	}
	bound := core.SynapseFep(s, synFaults, crash.SynapseDeviation(fault.Params{}, s))
	inputs := metrics.RandomPoints(rng.New(22), 14, 30)
	measured := fault.MaxError(n1, plan, fault.Crash{}, inputs)
	if measured > bound*(1+1e-9) {
		t.Fatalf("kernel-fault error %v exceeds SynapseFep %v", measured, bound)
	}
}
