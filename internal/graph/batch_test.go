package graph_test

// The batched engine's graph matrix: on a genuinely non-layered skip
// graph, the fused level-scheduled multi-lane path must be
// bit-identical to the one-at-a-time scalar engine for EVERY
// registered fault model, across ragged lane counts and lanes with
// different divergence depths — and, like the dense engine, must not
// allocate in steady state.

import (
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// batchSkipNet builds a skip graph with real cross-level edges (the
// DAG batch path; asserted non-layered) wide enough for the fixed
// plans below, plus a shared input set.
func batchSkipNet(t *testing.T, seed uint64) (*graph.Net, [][]float64) {
	t.Helper()
	r := rng.New(seed)
	g := graph.NewSmallWorld(r, 3, []int{9, 7, 5}, activation.NewSigmoid(1), 2, 0.6)
	if nn.IsLayered(g) {
		t.Fatal("generator produced a layered graph; the DAG path would go untested — pick another seed")
	}
	inputs := make([][]float64, 6)
	for i := range inputs {
		x := make([]float64, 3)
		r.Floats(x, 0, 1)
		inputs[i] = x
	}
	return g, inputs
}

// lastEdge addresses node (l, to)'s last in-edge — a synapse fault
// valid on any generated topology, and on a rewired graph often a
// skip edge.
func lastEdge(g *graph.Net, l, to int) fault.SynapseFault {
	return fault.SynapseFault{Layer: l, To: to, From: g.FanIn(l, to) - 1}
}

// graphBatchPlans mirrors the dense matrix's lane mix on the graph's
// own addressing: an empty plan (never diverges), a deep-only plan,
// shallow plans, and plans with synapse faults either side of the
// output stage (in-edge ordinals, so faults can land on skip edges).
func graphBatchPlans(t *testing.T, r *rng.Rand, g *graph.Net) []fault.Plan {
	t.Helper()
	plans := []fault.Plan{
		{},
		{Neurons: []fault.NeuronFault{{Layer: 3, Index: 4}}},
		fault.RandomNeuronPlan(r, g, []int{2, 1, 1}),
		{Neurons: []fault.NeuronFault{{Layer: 1, Index: 0}, {Layer: 1, Index: 8}}},
		{Synapses: []fault.SynapseFault{lastEdge(g, 4, 0)}},
		{Neurons: []fault.NeuronFault{{Layer: 2, Index: 6}},
			Synapses: []fault.SynapseFault{lastEdge(g, 1, 2), lastEdge(g, 3, 1)}},
		fault.RandomNeuronPlan(r, g, []int{1, 1, 0}),
		randomGraphPlan(r, g),
	}
	for i, p := range plans {
		if err := p.Validate(g); err != nil {
			t.Fatalf("plan %d invalid on the generated graph: %v", i, err)
		}
	}
	return plans
}

// TestGraphBatchMatchesScalarAllModels ports the batched engine's
// ground-truth gate to arbitrary topologies: for every registered
// fault model, per-lane errors off the fused DAG sweep must be
// bit-identical to the scalar compiled engine — full and partial
// batches, lanes diverging at different levels, skip-edge synapse
// faults included. Stochastic models run on twin-seeded streams, so
// agreement also proves lane interleaving preserves each lane's draw
// order.
func TestGraphBatchMatchesScalarAllModels(t *testing.T) {
	g, inputs := batchSkipNet(t, 211)
	traces := fault.CleanTraces(g, inputs)
	r := rng.New(223)
	plans := graphBatchPlans(t, r, g)

	for _, m := range fault.Models() {
		build := func(seed uint64) fault.Injector {
			inj, err := m.New(fault.Params{C: 0.8, Sem: core.DeviationCap, Value: 0.4, Prob: 0.5, Bits: 8, Bit: 6, Net: g, R: rng.New(seed)})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			return inj
		}
		for _, lanes := range []int{1, 3, len(plans)} {
			bp := fault.CompileBatch(g, len(plans))
			bp.Reset(plans[:lanes])
			injs := make([]fault.Injector, lanes)
			oracle := make([]fault.Injector, lanes)
			scalars := make([]*fault.CompiledPlan, lanes)
			for p := 0; p < lanes; p++ {
				injs[p] = build(uint64(1000 + p))
				oracle[p] = build(uint64(1000 + p))
				scalars[p] = fault.Compile(g, plans[p])
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

// TestGraphBatchSteadyStateAllocs extends the batched engine's
// zero-allocation contract to graph models: once compiled and loaded,
// Reset (row lists included) + a full trace sweep over the
// level-scheduled lanes path must not allocate — on the skip graph and
// on a sparse graph whose lanes take the row path.
func TestGraphBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get; the contract is measured without the detector")
	}
	g, inputs := batchSkipNet(t, 227)
	r := rng.New(229)
	sparse := graph.NewSparse(r, 3, []int{96, 96, 64}, activation.NewSigmoid(1), 0.05)
	sparsePlans := make([]fault.Plan, fault.BatchLanes)
	for p := range sparsePlans {
		sparsePlans[p] = fault.RandomNeuronPlan(r, sparse, []int{2, 2, 1})
	}
	for _, c := range []struct {
		name  string
		g     *graph.Net
		plans []fault.Plan
	}{
		{"skip", g, graphBatchPlans(t, r, g)},
		{"sparse", sparse, sparsePlans},
	} {
		traces := fault.CleanTraces(c.g, inputs)
		bp := fault.CompileBatch(c.g, len(c.plans))
		injs := make([]fault.Injector, len(c.plans))
		for p := range injs {
			injs[p] = fault.Crash{}
		}
		out := make([]float64, len(c.plans))
		run := func() {
			bp.Reset(c.plans)
			for _, tr := range traces {
				bp.ErrorsOnTrace(injs, tr, out)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("batched %s graph sweep: %v allocs per run, want 0", c.name, allocs)
		}
	}
}
