package neurofail_test

// One benchmark per reproduced figure/table (the DESIGN.md experiment
// index), each regenerating the experiment's rows end to end, plus
// microbenchmarks of the primitives whose costs the paper argues about:
// computing Fep from the topology (O(L), nanoseconds) versus assessing
// robustness experimentally (exhaustive configurations times input
// sweeps).

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	neurofail "repro"
	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fault/faulttest"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/train"
)

// runExperiment executes one experiment generator b.N times and fails the
// benchmark if any run reports a bound violation.
func runExperiment(b *testing.B, run func() *experiments.Result) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := run()
		for _, n := range res.Notes {
			if len(n) >= 9 && n[:9] == "VIOLATION" {
				b.Fatalf("[%s] %s", res.ID, n)
			}
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2SigmoidProfiles regenerates Figure 2 (sigmoid profiles for
// several K).
func BenchmarkFig2SigmoidProfiles(b *testing.B) {
	runExperiment(b, experiments.Fig2SigmoidProfiles)
}

// BenchmarkFig3ErrorVsLipschitz regenerates Figure 3 (error vs Lipschitz
// constant across Nets 1-8, log scale).
func BenchmarkFig3ErrorVsLipschitz(b *testing.B) {
	runExperiment(b, experiments.Fig3ErrorVsLipschitz)
}

// BenchmarkThm1CrashBound regenerates the Theorem 1 crash sweep and
// tightness table.
func BenchmarkThm1CrashBound(b *testing.B) {
	runExperiment(b, experiments.Thm1CrashBound)
}

// BenchmarkThm2DepthPropagation regenerates the Theorem 2 depth series.
func BenchmarkThm2DepthPropagation(b *testing.B) {
	runExperiment(b, experiments.Thm2DepthPropagation)
}

// BenchmarkThm4SynapseBound regenerates the Theorem 4 synapse table.
func BenchmarkThm4SynapseBound(b *testing.B) {
	runExperiment(b, experiments.Thm4SynapseBound)
}

// BenchmarkThm5Quantisation regenerates the Theorem 5 / Proteus bit-width
// sweep.
func BenchmarkThm5Quantisation(b *testing.B) {
	runExperiment(b, experiments.Thm5Quantisation)
}

// BenchmarkBoosting regenerates the Corollary 2 waiting-time table.
func BenchmarkBoosting(b *testing.B) {
	runExperiment(b, experiments.Boosting)
}

// BenchmarkLemma1UnboundedByzantine regenerates the Lemma 1 capacity
// sweep.
func BenchmarkLemma1UnboundedByzantine(b *testing.B) {
	runExperiment(b, experiments.Lemma1UnboundedByzantine)
}

// BenchmarkTradeoffRobustnessLearning regenerates the Application C
// trade-off tables.
func BenchmarkTradeoffRobustnessLearning(b *testing.B) {
	runExperiment(b, experiments.TradeoffRobustnessLearning)
}

// BenchmarkConvReceptiveField regenerates the Section VI conv comparison.
func BenchmarkConvReceptiveField(b *testing.B) {
	runExperiment(b, experiments.ConvReceptiveField)
}

// BenchmarkCombinatorialVsFep regenerates the Section I cost comparison.
func BenchmarkCombinatorialVsFep(b *testing.B) {
	runExperiment(b, experiments.CombinatorialVsFep)
}

// BenchmarkOverProvisioning regenerates the Section II-C width sweep.
func BenchmarkOverProvisioning(b *testing.B) {
	runExperiment(b, experiments.OverProvisioning)
}

// BenchmarkFepRegularisedTraining regenerates the Section VI future-work
// penalty sweep.
func BenchmarkFepRegularisedTraining(b *testing.B) {
	runExperiment(b, experiments.FepRegularisedTraining)
}

// BenchmarkMixedFaults regenerates the mixed-distribution extension
// tables.
func BenchmarkMixedFaults(b *testing.B) {
	runExperiment(b, experiments.MixedFaults)
}

// --- microbenchmarks -----------------------------------------------------

func benchNet(widths []int) *nn.Network {
	return neurofail.NewRandomNetwork(neurofail.NewRand(1), neurofail.NetworkConfig{
		InputDim: 8,
		Widths:   widths,
		Act:      neurofail.NewSigmoid(1),
	}, 0.5)
}

// BenchmarkFepFormula measures the O(L) topology-only bound the paper
// sells against the combinatorial alternative.
func BenchmarkFepFormula(b *testing.B) {
	net := benchNet([]int{64, 64, 64, 64})
	s := neurofail.ShapeOf(net)
	faults := []int{4, 4, 4, 4}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += neurofail.Fep(s, faults, 1)
	}
	_ = sink
}

// BenchmarkForward measures one clean evaluation of a 4x64 network.
func BenchmarkForward(b *testing.B) {
	net := benchNet([]int{64, 64, 64, 64})
	x := make([]float64, 8)
	rng.New(2).Floats(x, 0, 1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += net.Forward(x)
	}
	_ = sink
}

// BenchmarkFaultedForward measures one damaged evaluation on a compiled
// plan — the steady-state cost every measurement loop (MaxError, Monte
// Carlo, exhaustive search) pays per (plan, input) pair. The clean
// reference sweep runs only as deep as the injector needs nominal values
// (not at all for crash failures).
func BenchmarkFaultedForward(b *testing.B) {
	net := benchNet([]int{64, 64, 64, 64})
	plan := neurofail.AdversarialPlan(net, []int{4, 4, 4, 4})
	cp := fault.Compile(net, plan)
	inj := neurofail.Crash()
	x := make([]float64, 8)
	rng.New(2).Floats(x, 0, 1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cp.Forward(inj, x)
	}
	_ = sink
}

// BenchmarkFaultedForwardOneShot measures the uncompiled convenience
// path (FaultedForward indexes the plan on every call).
func BenchmarkFaultedForwardOneShot(b *testing.B) {
	net := benchNet([]int{64, 64, 64, 64})
	plan := neurofail.AdversarialPlan(net, []int{4, 4, 4, 4})
	x := make([]float64, 8)
	rng.New(2).Floats(x, 0, 1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += neurofail.FaultedForward(net, plan, neurofail.Crash(), x)
	}
	_ = sink
}

// BenchmarkFaultedForwardPerModel measures the compiled-plan damaged
// pass under every registered fault model (the BENCH_2.json matrix):
// run with -benchmem to see the zero-allocation contract hold for each
// deterministic model, and that the stochastic ones stay allocation-free
// too (their rng draws reuse injector state).
func BenchmarkFaultedForwardPerModel(b *testing.B) {
	net := benchNet([]int{64, 64, 64, 64})
	plan := neurofail.AdversarialPlan(net, []int{4, 4, 4, 4})
	cp := fault.Compile(net, plan)
	x := make([]float64, 8)
	rng.New(2).Floats(x, 0, 1)
	for _, m := range neurofail.FaultModels() {
		inj, err := m.New(neurofail.FaultParams{
			C: 1, Sem: core.DeviationCap, Value: 0.5, Prob: 0.5,
			Bits: 8, Bit: 6, Net: net, R: rng.New(3),
		})
		if err != nil {
			b.Fatalf("%s: %v", m.Name, err)
		}
		b.Run(m.Name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += cp.Forward(inj, x)
			}
			_ = sink
		})
	}
}

// benchConv2D returns the BENCH_4.json reference pair: a 32x32 2-D conv
// net (5x5 then 3x3 kernels, 4 filters each) and its lowered dense
// equivalent.
func benchConv2D(tb testing.TB) (*neurofail.ConvNet2D, *nn.Network) {
	tb.Helper()
	n, err := neurofail.NewRandomConv2D(rng.New(1), 32, 32, []int{5, 3}, []int{4, 4}, neurofail.NewSigmoid(1), 0.3, false)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := neurofail.LowerConv2D(n)
	if err != nil {
		tb.Fatal(err)
	}
	return n, d
}

// TestConvNativeSpeedSmoke is the enforced form of the BENCH_4.json
// acceptance gate (make bench-conv runs it in CI): if the native conv
// path ever silently regresses to dense lowering, the native and
// lowered timings converge and this fails. The >= 3x gate is asserted
// at 2x to leave headroom for noisy shared CI hosts — the measured gap
// is >15x. Wall-clock assertions do not belong in the ordinary test
// steps (parallel package runs make short timing loops flaky), so the
// test only arms itself under the bench-conv target's env flag.
func TestConvNativeSpeedSmoke(t *testing.T) {
	if os.Getenv("NEUROFAIL_BENCH_CONV") == "" {
		t.Skip("timing smoke; run via make bench-conv (NEUROFAIL_BENCH_CONV=1)")
	}
	n, d := benchConv2D(t)
	x := make([]float64, 1024)
	rng.New(2).Floats(x, 0, 1)
	plan := neurofail.AdversarialPlan(n, []int{4, 4})
	inj := neurofail.Crash()
	nativeCP := fault.Compile(n, plan)
	loweredCP := fault.Compile(d, plan)
	var sink float64
	time10 := func(cp *neurofail.CompiledPlan) time.Duration {
		sink += cp.Forward(inj, x) // warm scratch pools and caches
		start := time.Now()
		for i := 0; i < 10; i++ {
			sink += cp.Forward(inj, x)
		}
		return time.Since(start)
	}
	native := time10(nativeCP)
	lowered := time10(loweredCP)
	_ = sink
	if native*2 >= lowered {
		t.Fatalf("native conv faulted pass (%v/10 iters) not clearly faster than lowered (%v/10 iters): has the native path regressed to lowering?", native, lowered)
	}
}

// BenchmarkConvForward measures the clean forward pass of the 32x32 2-D
// conv net: native (R(l) multiplies per neuron, zero allocations) vs
// the lowered dense equivalent (N_{l-1} multiplies per neuron). Outputs
// are bit-identical; only the arithmetic volume differs.
func BenchmarkConvForward(b *testing.B) {
	n, d := benchConv2D(b)
	x := make([]float64, 1024)
	rng.New(2).Floats(x, 0, 1)
	b.Run("native", func(b *testing.B) {
		sc := neurofail.NewScratch(n)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += neurofail.ForwardModel(n, sc, x)
		}
		_ = sink
	})
	b.Run("lowered", func(b *testing.B) {
		sc := neurofail.NewScratch(d)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += neurofail.ForwardModel(d, sc, x)
		}
		_ = sink
	})
}

// BenchmarkConvFaultedForward measures the compiled-plan damaged pass
// (adversarial crashes, 4 per layer) on the same pair — the acceptance
// gate of the model-layer refactor: native must be >= 3x faster than
// lowering at zero steady-state allocations, bit-identical outputs.
func BenchmarkConvFaultedForward(b *testing.B) {
	n, d := benchConv2D(b)
	x := make([]float64, 1024)
	rng.New(2).Floats(x, 0, 1)
	plan := neurofail.AdversarialPlan(n, []int{4, 4})
	inj := neurofail.Crash()
	b.Run("native", func(b *testing.B) {
		cp := fault.Compile(n, plan)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += cp.Forward(inj, x)
		}
		_ = sink
	})
	b.Run("lowered", func(b *testing.B) {
		cp := fault.Compile(d, plan)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += cp.Forward(inj, x)
		}
		_ = sink
	})
}

// BenchmarkConvModelSweep regenerates the CS native-vs-lowered sweep.
func BenchmarkConvModelSweep(b *testing.B) {
	runExperiment(b, experiments.ConvModelSweep)
}

// BenchmarkFaultModelSweep regenerates the S1 scenario sweep end to end.
func BenchmarkFaultModelSweep(b *testing.B) {
	runExperiment(b, experiments.FaultModelSweep)
}

// BenchmarkFaultedErrorOn measures the fused clean+damaged error sweep
// on a compiled plan with an injector that consumes nominal values (the
// worst case: both sweeps must run).
func BenchmarkFaultedErrorOn(b *testing.B) {
	net := benchNet([]int{64, 64, 64, 64})
	plan := neurofail.AdversarialPlan(net, []int{4, 4, 4, 4})
	cp := fault.Compile(net, plan)
	var inj fault.Injector = fault.Byzantine{C: 1, Sem: core.DeviationCap}
	x := make([]float64, 8)
	rng.New(2).Floats(x, 0, 1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cp.ErrorOn(inj, x)
	}
	_ = sink
}

// BenchmarkExhaustiveSearch measures the combinatorial alternative on a
// deliberately small instance: C(10,2)^2 = 2025 configurations x 4 inputs.
func BenchmarkExhaustiveSearch(b *testing.B) {
	net := benchNet([]int{10, 10})
	inputs := metrics.RandomPoints(rng.New(3), 8, 4)
	benchExhaustive(b, net, []int{2, 2}, inputs)
}

// benchExhaustive runs the pruned tree search b.N times and reports the
// mean visited and pruned configurations per search next to the time,
// so snapshots record the bounder's pruning power from change to change
// (the split varies a little between runs: parallel shards race on the
// shared pruning floor).
func benchExhaustive(b *testing.B, m nn.Model, perLayer []int, inputs [][]float64) {
	b.Helper()
	var visited, pruned int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fault.ExhaustiveWorstCrash(m, perLayer, inputs, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		visited += res.Visited
		pruned += res.Pruned
	}
	b.ReportMetric(float64(visited)/float64(b.N), "visited/op")
	b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
}

// BenchmarkDistributedRun measures the goroutine message-passing runtime
// against BenchmarkForward's sequential baseline.
func BenchmarkDistributedRun(b *testing.B) {
	net := benchNet([]int{32, 32})
	x := make([]float64, 8)
	rng.New(4).Floats(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := neurofail.RunDistributed(net, fault.Plan{}, nil, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedySolver measures the greedy max-fault-distribution search.
func BenchmarkGreedySolver(b *testing.B) {
	net := benchNet([]int{32, 32, 32})
	s := neurofail.ShapeOf(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedyMaxFaults(s, 1, 5)
	}
}

// --- ablations -----------------------------------------------------------
// Design choices DESIGN.md calls out, each isolated as a benchmark whose
// reported metric is the quantity being ablated.

// BenchmarkAblationCapSemantics contrasts the two readings of
// Assumption 1: the effective Fep under TransmissionCap exceeds the
// DeviationCap bound by exactly the ActCap term per fault. The benchmark
// reports the ratio as ns-independent custom metrics.
func BenchmarkAblationCapSemantics(b *testing.B) {
	net := benchNet([]int{32, 32})
	s := neurofail.ShapeOf(net)
	faults := []int{2, 2}
	var dev, trans float64
	for i := 0; i < b.N; i++ {
		dev = neurofail.Fep(s, faults, 1)
		trans = neurofail.Fep(s, faults, core.EffectiveDeviation(1, core.TransmissionCap, s.ActCap))
	}
	b.ReportMetric(trans/dev, "transmission/deviation")
}

// BenchmarkAblationAdversarialVsRandomPlan measures how much worse the
// adversarial top-weight plan is than the average random plan — the
// justification for using it in the tightness experiments.
func BenchmarkAblationAdversarialVsRandomPlan(b *testing.B) {
	net := benchNet([]int{24})
	inputs := metrics.RandomPoints(rng.New(5), 8, 50)
	r := rng.New(6)
	var ratio float64
	for i := 0; i < b.N; i++ {
		adv := fault.MaxError(net, fault.AdversarialNeuronPlan(net, []int{3}), fault.Crash{}, inputs)
		sum := 0.0
		const trials = 10
		for t := 0; t < trials; t++ {
			sum += fault.MaxError(net, fault.RandomNeuronPlan(r, net, []int{3}), fault.Crash{}, inputs)
		}
		ratio = adv / (sum / trials)
	}
	b.ReportMetric(ratio, "adversarial/random")
}

// BenchmarkAblationSmoothMaxSlack measures the over-approximation of the
// p-norm smooth maximum used by Fep-regularised training, relative to the
// exact Fep.
func BenchmarkAblationSmoothMaxSlack(b *testing.B) {
	net := benchNet([]int{32, 32})
	faults := []int{2, 2}
	exact := neurofail.Fep(neurofail.ShapeOf(net), faults, 1)
	var slack float64
	for i := 0; i < b.N; i++ {
		slack = train.SmoothFep(net, faults, 1) / exact
	}
	b.ReportMetric(slack, "smooth/exact")
}

// BenchmarkAblationWorstInputVsGrid compares hill-climbed worst inputs
// with a 50-point random sample (quality ratio; > 1 means climbing found
// a worse input than sampling did).
func BenchmarkAblationWorstInputVsGrid(b *testing.B) {
	net := benchNet([]int{16, 12})
	plan := neurofail.AdversarialPlan(net, []int{2, 1})
	inputs := metrics.RandomPoints(rng.New(7), 8, 50)
	sampled := fault.MaxError(net, plan, fault.Crash{}, inputs)
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, climbed := neurofail.WorstInput(net, plan, fault.Crash{}, rng.New(uint64(i)+8), 4, 25)
		ratio = climbed / sampled
	}
	b.ReportMetric(ratio, "climbed/sampled")
}

// BenchmarkMonteCarloProfile measures the cost of a 100-configuration
// random failure profile — the experimental assessment whose cost the
// closed-form bound avoids.
func BenchmarkMonteCarloProfile(b *testing.B) {
	net := benchNet([]int{24, 24})
	inputs := metrics.RandomPoints(rng.New(9), 8, 10)
	r := rng.New(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		neurofail.MonteCarlo(net, []int{2, 2}, 1, inputs, 100, r)
	}
}

// --- batched multi-lane engine (BENCH_7.json workloads) ------------------

// benchBatchedFixture is the fixed batched-vs-scalar workload:
// 448-wide layers (1.6 MiB per weight matrix, past L2), BatchLanes
// random plans, an 8-input sweep — a plan-batching shape where each
// weight matrix streams from outer cache once per lane pair instead of
// once per plan. The width matters twice over: matrix traffic must
// dominate activation evaluation (O(n) per layer, unshareable across
// lanes, paid equally by both engines), and the matrices must outgrow
// L2 for the halved stream traffic to be the bottleneck — at 160 wide
// the gap is only the paired kernel's shared register loads (~1.2x),
// at 448 it is ~1.7x.
func benchBatchedFixture(tb testing.TB) (*nn.Network, []fault.Plan, []*nn.Trace) {
	tb.Helper()
	net := benchNet([]int{448, 448, 448})
	r := rng.New(11)
	plans := make([]fault.Plan, neurofail.BatchLanes)
	for p := range plans {
		plans[p] = neurofail.RandomPlan(r, net, []int{4, 4, 4})
	}
	inputs := metrics.RandomPoints(r, 8, 8)
	return net, plans, fault.CleanTraces(net, inputs)
}

// BenchmarkBatchedSweep compares one full plans-x-traces damaged sweep
// through the scalar compiled engine against the fused multi-lane
// batch. Both produce bit-identical errors; only the memory traffic per
// plan differs.
func BenchmarkBatchedSweep(b *testing.B) {
	net, plans, traces := benchBatchedFixture(b)
	inj := neurofail.Crash()
	b.Run("scalar", func(b *testing.B) {
		cps := make([]*fault.CompiledPlan, len(plans))
		for p, plan := range plans {
			cps[p] = fault.Compile(net, plan)
		}
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, cp := range cps {
				for _, tr := range traces {
					sink += cp.ErrorOnTrace(inj, tr)
				}
			}
		}
		_ = sink
	})
	b.Run("batched", func(b *testing.B) {
		bp := neurofail.CompileBatch(net, neurofail.BatchLanes)
		injs := make([]fault.Injector, len(plans))
		for p := range injs {
			injs[p] = inj
		}
		out := make([]float64, len(plans))
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			bp.Reset(plans)
			for _, tr := range traces {
				bp.ErrorsOnTrace(injs, tr, out)
				sink += out[0]
			}
		}
		_ = sink
	})
}

// BenchmarkExhaustiveSearchWide measures the exhaustive search in the
// matrix-streaming regime the batched engine targets: 64-wide layers
// (32 KiB per weight matrix) where the scalar engine re-streams every
// matrix from L2 per configuration. C(64,1)^2 = 4096 configurations x
// 4 inputs.
func BenchmarkExhaustiveSearchWide(b *testing.B) {
	net := benchNet([]int{64, 64})
	inputs := metrics.RandomPoints(rng.New(3), 8, 4)
	benchExhaustive(b, net, []int{1, 1}, inputs)
}

// BenchmarkForward32 measures the float32 inference lane against the
// float64 clean pass on the BenchmarkForward net — half the parameter
// traffic, accuracy certified by the Theorem 5 lane certificate rather
// than bit-identity.
func BenchmarkForward32(b *testing.B) {
	net := benchNet([]int{64, 64, 64, 64})
	lane, err := neurofail.NewFloat32Lane(net)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 8)
	rng.New(2).Floats(x, 0, 1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += lane.Forward(x)
	}
	_ = sink
}

// TestBatchedSpeedSmoke is the regression tripwire behind make
// bench-batch (the enforced companion of the BENCH_7.json numbers): a
// fixed plans-x-traces sweep through the batched engine must clearly
// beat the scalar one-at-a-time engine. On the fixture's past-L2 shape
// the measured gap is ~1.7x; the assertion is 1.2x on best-of-rounds
// times with the rounds interleaved, which filters the scheduler noise
// of shared CI hosts (noise dwarfs the gap on any single round). Like
// the conv smoke, it only arms itself under the bench target's env
// flag — wall-clock assertions do not belong in the ordinary test
// steps.
func TestBatchedSpeedSmoke(t *testing.T) {
	if os.Getenv("NEUROFAIL_BENCH_BATCH") == "" {
		t.Skip("timing smoke; run via make bench-batch (NEUROFAIL_BENCH_BATCH=1)")
	}
	net, plans, traces := benchBatchedFixture(t)
	inj := neurofail.Crash()
	const (
		rounds = 6
		reps   = 3
	)

	cps := make([]*fault.CompiledPlan, len(plans))
	for p, plan := range plans {
		cps[p] = fault.Compile(net, plan)
	}
	bp := neurofail.CompileBatch(net, neurofail.BatchLanes)
	injs := make([]fault.Injector, len(plans))
	for p := range injs {
		injs[p] = inj
	}
	out := make([]float64, len(plans))

	var sink float64
	scalarSweep := func() {
		for _, cp := range cps {
			for _, tr := range traces {
				sink += cp.ErrorOnTrace(inj, tr)
			}
		}
	}
	batchedSweep := func() {
		bp.Reset(plans)
		for _, tr := range traces {
			bp.ErrorsOnTrace(injs, tr, out)
			sink += out[0]
		}
	}
	time1 := func(sweep func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			sweep()
		}
		return time.Since(start)
	}
	scalarSweep() // warm pools and caches
	batchedSweep()
	// Interleave the rounds so a load spike on a shared host hits both
	// engines, not whichever happened to be mid-phase.
	scalar := time.Duration(math.MaxInt64)
	batched := time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		if d := time1(scalarSweep); d < scalar {
			scalar = d
		}
		if d := time1(batchedSweep); d < batched {
			batched = d
		}
	}
	_ = sink
	if batched*12 >= scalar*10 {
		t.Fatalf("batched sweep (best %v/%d reps) not clearly faster than scalar (best %v/%d reps): has the multi-lane path regressed?",
			batched, reps, scalar, reps)
	}
	t.Logf("scalar %v, batched %v (%.2fx), best of %d rounds x %d reps", scalar, batched, float64(scalar)/float64(batched), rounds, reps)
}

// --- sparse-DAG graph engine (BENCH_9.json workloads) --------------------

// benchGraphFixture is the fixed graph-native-vs-lowered workload: a
// layer-expressible sparse graph (1024-wide levels, density 0.01 — ~10
// in-edges per node) and its lowered dense twin. The native engine
// walks only the CSR edges that exist; the lowered network multiplies
// through every zero the densification materialised (an 8 MiB matrix
// per level, streamed from memory), so both the arithmetic volume and
// the memory traffic differ by ~1/density while the outputs stay
// bit-identical. The width matters: at cache-resident widths the dense
// matvec's sequential streaming beats the CSR gather despite doing 50x
// the multiplies — the sparse win is a memory-traffic win, not a
// flop-count win.
func benchGraphFixture(tb testing.TB) (*neurofail.GraphNet, *nn.Network) {
	tb.Helper()
	g := neurofail.NewSparseGraph(rng.New(1), 8, []int{1024, 1024, 1024}, neurofail.NewSigmoid(1), 0.01)
	d, err := neurofail.LowerGraph(g)
	if err != nil {
		tb.Fatal(err)
	}
	return g, d
}

// BenchmarkGraphForward measures the clean forward pass of the sparse
// graph: native CSR traversal vs the lowered dense equivalent.
func BenchmarkGraphForward(b *testing.B) {
	g, d := benchGraphFixture(b)
	x := make([]float64, 8)
	rng.New(2).Floats(x, 0, 1)
	b.Run("native", func(b *testing.B) {
		sc := neurofail.NewScratch(g)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += nn.ForwardModel(g, sc, x)
		}
		_ = sink
	})
	b.Run("lowered", func(b *testing.B) {
		sc := neurofail.NewScratch(d)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += neurofail.ForwardModel(d, sc, x)
		}
		_ = sink
	})
}

// BenchmarkGraphFaultedForward measures the compiled-plan damaged pass
// (adversarial crashes, 4 per level) on the same pair.
func BenchmarkGraphFaultedForward(b *testing.B) {
	g, d := benchGraphFixture(b)
	x := make([]float64, 8)
	rng.New(2).Floats(x, 0, 1)
	plan := neurofail.AdversarialPlan(g, []int{4, 4, 4})
	inj := neurofail.Crash()
	b.Run("native", func(b *testing.B) {
		cp := fault.Compile(g, plan)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += cp.Forward(inj, x)
		}
		_ = sink
	})
	b.Run("lowered", func(b *testing.B) {
		cp := fault.Compile(d, plan)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += cp.Forward(inj, x)
		}
		_ = sink
	})
}

// BenchmarkGraphNodeShape measures per-node certification against the
// layered closed form on the lowered twin — the cost of generality.
func BenchmarkGraphNodeShape(b *testing.B) {
	g, d := benchGraphFixture(b)
	ns, err := neurofail.NodeShapeOf(g)
	if err != nil {
		b.Fatal(err)
	}
	s := neurofail.ShapeOf(d)
	faults := []int{4, 4, 4}
	b.Run("per-node", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += ns.Fep(faults, 1)
		}
		_ = sink
	})
	b.Run("layered-closed-form", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += neurofail.Fep(s, faults, 1)
		}
		_ = sink
	})
}

// BenchmarkTopologySweep regenerates the GS topology sweep end to end.
func BenchmarkTopologySweep(b *testing.B) {
	runExperiment(b, experiments.TopologySweep)
}

// TestGraphNativeSpeedSmoke is the enforced form of the BENCH_9.json
// acceptance gate (make bench-graph runs it in CI): the sparse-DAG
// engine must stay clearly faster than evaluating the lowered dense
// twin, or the CSR path has regressed to densification. Outputs must
// also stay bit-identical — the speed is worthless if the engine
// changed the answer. Same protocol as the other speed smokes:
// interleaved best-of-rounds, a 2x assertion far below the measured
// gap, armed only under the bench target's env flag.
func TestGraphNativeSpeedSmoke(t *testing.T) {
	if os.Getenv("NEUROFAIL_BENCH_GRAPH") == "" {
		t.Skip("timing smoke; run via make bench-graph (NEUROFAIL_BENCH_GRAPH=1)")
	}
	g, d := benchGraphFixture(t)
	inputs := metrics.RandomPoints(rng.New(2), 8, 8)
	plan := neurofail.AdversarialPlan(g, []int{4, 4, 4})
	inj := neurofail.Crash()
	nativeCP := fault.Compile(g, plan)
	loweredCP := fault.Compile(d, plan)
	for _, x := range inputs {
		if nv, lv := nativeCP.Forward(inj, x), loweredCP.Forward(inj, x); nv != lv {
			t.Fatalf("native damaged output %v != lowered %v: the CSR engine changed the answer", nv, lv)
		}
	}
	const (
		rounds = 6
		reps   = 3
	)
	var sink float64
	sweep := func(cp *neurofail.CompiledPlan) func() {
		return func() {
			for _, x := range inputs {
				sink += cp.Forward(inj, x)
			}
		}
	}
	nativeSweep, loweredSweep := sweep(nativeCP), sweep(loweredCP)
	time1 := func(sweep func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			sweep()
		}
		return time.Since(start)
	}
	nativeSweep() // warm pools and caches
	loweredSweep()
	native := time.Duration(math.MaxInt64)
	lowered := time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		if d := time1(loweredSweep); d < lowered {
			lowered = d
		}
		if d := time1(nativeSweep); d < native {
			native = d
		}
	}
	_ = sink
	if native*2 >= lowered {
		t.Fatalf("native graph faulted sweep (best %v/%d reps) not clearly faster than lowered (best %v/%d reps): has the CSR path regressed to densification?",
			native, reps, lowered, reps)
	}
	t.Logf("lowered %v, native %v (%.2fx), best of %d rounds x %d reps", lowered, native, float64(lowered)/float64(native), rounds, reps)
}

// TestExhaustiveSpeedSmoke is the regression tripwire behind make
// bench-exhaustive (the enforced companion of the BENCH_8.json
// numbers): a fixed exhaustive sweep through the tree-structured engine
// (damaged-prefix sharing + bound-guided pruning) must clearly beat the
// flat enumeration that re-evaluates every layer of every
// configuration. Both engines must also agree bitwise on the worst
// error — the speed is worthless if the tree changed the answer. Same
// protocol as the batched smoke: interleaved best-of-rounds, 1.2x
// assertion (measured gap is larger), armed only under the bench
// target's env flag.
func TestExhaustiveSpeedSmoke(t *testing.T) {
	if os.Getenv("NEUROFAIL_BENCH_EXHAUSTIVE") == "" {
		t.Skip("timing smoke; run via make bench-exhaustive (NEUROFAIL_BENCH_EXHAUSTIVE=1)")
	}
	net := benchNet([]int{24, 24})
	inputs := metrics.RandomPoints(rng.New(3), 8, 4)
	perLayer := []int{2, 2} // C(24,2)^2 = 76176 configurations
	const (
		rounds = 6
		reps   = 3
	)
	var treeRes, flatRes neurofail.ExhaustiveResult
	treeSweep := func() {
		var err error
		if treeRes, err = neurofail.ExhaustiveWorstCrash(net, perLayer, inputs, 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	flatSweep := func() {
		var err error
		if flatRes, err = faulttest.ExhaustiveWorstCrashFlat(net, perLayer, inputs, 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	time1 := func(sweep func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			sweep()
		}
		return time.Since(start)
	}
	treeSweep() // warm pools and caches
	flatSweep()
	if treeRes.WorstError != flatRes.WorstError {
		t.Fatalf("tree worst %v != flat worst %v: the fast path changed the answer", treeRes.WorstError, flatRes.WorstError)
	}
	tree := time.Duration(math.MaxInt64)
	flat := time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		if d := time1(flatSweep); d < flat {
			flat = d
		}
		if d := time1(treeSweep); d < tree {
			tree = d
		}
	}
	if tree*12 >= flat*10 {
		t.Fatalf("tree sweep (best %v/%d reps) not clearly faster than flat enumeration (best %v/%d reps): has prefix sharing regressed?",
			tree, reps, flat, reps)
	}
	t.Logf("flat %v, tree %v (%.2fx), best of %d rounds x %d reps; tree visited %d, pruned %d of %d",
		flat, tree, float64(flat)/float64(tree), rounds, reps, treeRes.Visited, treeRes.Pruned, treeRes.Configurations)
}

// --- batched + pruned graph engine (BENCH_10.json workloads) -------------

// benchGraphBatchFixture is the fixed batched-vs-scalar graph workload:
// the BENCH_9 sparse shape (1024-wide levels, density 0.01 — ~10
// in-edges per node) loaded with BatchLanes distinct crash plans of the
// given per-level fault counts. With 4,4,4 (BenchmarkGraphBatchedSweep)
// the row-granular frontier keeps every level under rowFrac, so both
// engines re-sum only the rows a lane's faults reach, one lane at a
// time. With graphWholeFaults (TestGraphBatchSpeedSmoke) every damaged
// level is evaluated whole: the scalar engine re-streams each level's
// edge list once per plan, the batched engine once per group of lanes
// in its grouped kernel (tensor.CSR.GatherLanesAddTo).
func benchGraphBatchFixture(tb testing.TB, faults []int) (*neurofail.GraphNet, []neurofail.Plan, []*nn.Trace) {
	tb.Helper()
	g := neurofail.NewSparseGraph(rng.New(1), 8, []int{1024, 1024, 1024}, neurofail.NewSigmoid(1), 0.01)
	r := rng.New(7)
	plans := make([]neurofail.Plan, neurofail.BatchLanes)
	for p := range plans {
		plans[p] = fault.RandomNeuronPlan(r, g, faults)
	}
	inputs := metrics.RandomPoints(rng.New(2), 8, 4)
	return g, plans, fault.CleanTraces(g, inputs)
}

// graphWholeFaults crashes enough level-1 neurons that levels 2 and 3
// read damage on more than rowFrac of their rows (~10 readers per
// node), so every damaged level past level 1, whose own crashes take
// the copy path, is evaluated whole.
var graphWholeFaults = []int{96, 4, 4}

// BenchmarkGraphBatchedSweep measures a fixed plans-x-traces crash sweep
// on the sparse graph: the one-at-a-time scalar engine (the shape of
// the retired lane-by-lane DAG fallback) vs the fused level-scheduled
// multi-lane sweep.
func BenchmarkGraphBatchedSweep(b *testing.B) {
	g, plans, traces := benchGraphBatchFixture(b, []int{4, 4, 4})
	inj := neurofail.Crash()
	b.Run("scalar", func(b *testing.B) {
		cps := make([]*neurofail.CompiledPlan, len(plans))
		for p, plan := range plans {
			cps[p] = fault.Compile(g, plan)
		}
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, cp := range cps {
				for _, tr := range traces {
					sink += cp.ErrorOnTrace(inj, tr)
				}
			}
		}
		_ = sink
	})
	b.Run("batched", func(b *testing.B) {
		bp := neurofail.CompileBatch(g, neurofail.BatchLanes)
		injs := make([]fault.Injector, len(plans))
		for p := range injs {
			injs[p] = inj
		}
		out := make([]float64, len(plans))
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			bp.Reset(plans)
			for _, tr := range traces {
				bp.ErrorsOnTrace(injs, tr, out)
				sink += out[0]
			}
		}
		_ = sink
	})
}

// benchGraphExhaustiveFixture is the fixed worst-case workload on a
// genuinely non-layered topology: a rewired Watts–Strogatz graph whose
// skip edges used to force the flat fallback. C(24,2)^2 = 76176 crash
// configurations x 4 inputs.
func benchGraphExhaustiveFixture(tb testing.TB) (*neurofail.GraphNet, [][]float64) {
	tb.Helper()
	g := neurofail.NewSmallWorldGraph(rng.New(5), 8, []int{24, 24}, neurofail.NewSigmoid(1), 2, 0.5)
	if nn.IsLayered(g) {
		tb.Fatal("fixture graph is layered; the DAG search path would go unmeasured")
	}
	return g, metrics.RandomPoints(rng.New(3), 8, 4)
}

// BenchmarkGraphExhaustive measures the exhaustive worst-case search on
// the skip graph: the flat enumeration (what non-layered models ran
// before the per-node bounder) vs the pruned prefix-sharing tree walk.
func BenchmarkGraphExhaustive(b *testing.B) {
	g, inputs := benchGraphExhaustiveFixture(b)
	perLayer := []int{2, 2}
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := faulttest.ExhaustiveWorstCrashFlat(g, perLayer, inputs, 1_000_000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) { benchExhaustive(b, g, perLayer, inputs) })
}

// graphMonteCarloFixture is campaign-graph's Monte Carlo job: the
// sparse 1024-wide DAG (density 0.01), faults 4,4,4, crash failures,
// 64 trials over 8 inputs.
func graphMonteCarloFixture(tb testing.TB) (*neurofail.GraphNet, []int, []*nn.Trace) {
	tb.Helper()
	g := neurofail.NewSparseGraph(rng.New(1), 8, []int{1024, 1024, 1024}, neurofail.NewSigmoid(1), 0.01)
	return g, []int{4, 4, 4}, fault.CleanTraces(g, metrics.RandomPoints(rng.New(2), 8, 8))
}

// BenchmarkGraphMonteCarlo measures one campaign-graph Monte Carlo job
// (64 trials) on a reused batched evaluator, over the job's 8 inputs
// and over its first input alone. The lanes are (trial, input) pairs:
// with 8 inputs a batch is one trial whose lanes share its plan and its
// row lists, with 1 input a batch is 8 trials with a plan each, the
// layout every job ran before inputs became lanes. rows/op is the
// number of rows a lane re-sums per trace, summed over the levels, and
// lN-rows-frac the share of level N's rows it re-sums: the work the
// row-granular damage frontier leaves.
func BenchmarkGraphMonteCarlo(b *testing.B) {
	const trials, seed = 64, 111
	g, faults, traces := graphMonteCarloFixture(b)
	L := g.NumLayers()
	rows := make([]float64, L+1)
	for t := 0; t < trials; t++ {
		cp := fault.Compile(g, fault.RandomNeuronPlan(rng.NewStream(seed, uint64(t)), g, faults))
		for l := 1; l <= L; l++ {
			rows[l] += float64(cp.RecomputedRows(l)) / trials
		}
	}
	for _, n := range []int{len(traces), 1} {
		b.Run(fmt.Sprintf("inputs=%d", n), func(b *testing.B) {
			bp := neurofail.CompileBatch(g, neurofail.BatchLanes)
			errs := make([]float64, trials)
			bp.MonteCarloRange(faults, 0, core.DeviationCap, traces[:n], seed, 0, errs) // size the lane state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bp.MonteCarloRange(faults, 0, core.DeviationCap, traces[:n], seed, i*trials, errs)
			}
			b.StopTimer()
			total := 0.0
			for l := 1; l <= L; l++ {
				total += rows[l]
				b.ReportMetric(rows[l]/float64(g.Width(l)), fmt.Sprintf("l%d-rows-frac", l))
			}
			b.ReportMetric(total, "rows/op")
		})
	}
}

// TestGraphMonteCarloInputLanesSmoke is the enforced form of the
// inputs-as-lanes gain (make bench-graph-batch runs it in CI): on
// BenchmarkGraphMonteCarlo's fixture, a job over 8 inputs, whose lanes
// share each trial's plan and re-sum its row lists in one row-list
// call, must cost at most 1/1.3 as much per (trial, input) as a job over
// one input, whose 8 lanes each carry their own plan. Before any timing
// it checks that every trial's crash error over the 8 inputs equals the
// largest of its one-input errors. Same protocol as the other speed
// smokes: interleaved best-of-rounds, armed only under the bench
// target's env flag.
func TestGraphMonteCarloInputLanesSmoke(t *testing.T) {
	if os.Getenv("NEUROFAIL_BENCH_GRAPH_BATCH") == "" {
		t.Skip("timing smoke; run via make bench-graph-batch (NEUROFAIL_BENCH_GRAPH_BATCH=1)")
	}
	const trials, seed = 64, 111
	g, faults, traces := graphMonteCarloFixture(t)
	bp := neurofail.CompileBatch(g, neurofail.BatchLanes)
	all := make([]float64, trials)
	bp.MonteCarloRange(faults, 0, core.DeviationCap, traces, seed, 0, all)
	worst := make([]float64, trials)
	one := make([]float64, trials)
	for j := range traces {
		bp.MonteCarloRange(faults, 0, core.DeviationCap, traces[j:j+1], seed, 0, one)
		for i, e := range one {
			worst[i] = max(worst[i], e)
		}
	}
	for i := range all {
		if all[i] != worst[i] {
			t.Fatalf("trial %d: %v over %d input lanes, %v as the largest one-input error: the shared-plan lanes changed the answer", i, all[i], len(traces), worst[i])
		}
	}
	const (
		rounds = 6
		reps   = 3
	)
	job := func(n int) func() {
		return func() { bp.MonteCarloRange(faults, 0, core.DeviationCap, traces[:n], seed, 0, all) }
	}
	time1 := func(sweep func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			sweep()
		}
		return time.Since(start)
	}
	n := len(traces)
	eight, single := job(n), job(1)
	eight() // warm pools and caches
	single()
	best8 := time.Duration(math.MaxInt64)
	best1 := time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		if d := time1(single); d < best1 {
			best1 = d
		}
		if d := time1(eight); d < best8 {
			best8 = d
		}
	}
	// Per (trial, input): best8/n against best1/1.
	ratio := float64(best1) * float64(n) / float64(best8)
	if ratio < 1.3 {
		t.Fatalf("%d-input job (best %v/%d reps) costs %.2fx less per (trial, input) than the 1-input job (best %v/%d reps), want >= 1.3x: have shared-plan input lanes regressed?",
			n, best8, reps, ratio, best1, reps)
	}
	t.Logf("per (trial, input): 1 input %v, %d inputs %v (%.2fx), best of %d rounds x %d reps",
		best1/(reps*trials), n, best8/time.Duration(reps*trials*n), ratio, rounds, reps)
}

// BenchmarkGraphRowCrossover measures the two ways the batched engine
// can evaluate one damaged level of the sparse 1024-wide DAG for
// BatchLanes lanes, each lane with its own damaged sources and its own
// random row list covering frac of the level: "rows" re-sums and
// re-activates each lane's listed rows (after copying its clean
// outputs), "lanes" runs the grouped lane kernel over the whole level
// and activates every row. ns/lane is the cost per lane; where the two
// meet is the crossover behind the engine's rowFrac (with fewer lanes
// in the kernel its per-lane cost rises, moving the crossover up).
func BenchmarkGraphRowCrossover(b *testing.B) {
	g, _, traces := graphMonteCarloFixture(b)
	const l, lanes = 3, neurofail.BatchLanes
	act := g.Activation()
	w := g.Width(l)
	srcs := make([][][]float64, lanes)
	dsts := make([][]float64, lanes)
	for p := range srcs {
		tr := traces[p%len(traces)]
		srcs[p] = append([][]float64{tr.Input}, tr.Outputs...)
		dsts[p] = make([]float64, w)
	}
	for _, frac := range []float64{0.1, 0.25, 0.4, 0.5, 0.75, 1} {
		r := rng.New(5)
		rows := make([][]int, lanes)
		for p := range rows {
			rows[p] = r.Sample(w, int(frac*float64(w)))
			sort.Ints(rows[p])
		}
		b.Run(fmt.Sprintf("frac=%.2f/rows", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for p := range dsts {
					copy(dsts[p], srcs[p][l])
					g.LevelRowSumsLanes(l, dsts[p:p+1], srcs[p:p+1], rows[p])
					activation.EvalAt(act, dsts[p], rows[p])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/lane")
		})
		b.Run(fmt.Sprintf("frac=%.2f/lanes", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.LevelSumsLanes(l, dsts, srcs)
				for p := range dsts {
					activation.Eval(act, dsts[p], dsts[p])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/lane")
		})
	}
}

// TestGraphBatchSpeedSmoke is the enforced form of the BENCH_10.json
// acceptance gate (make bench-graph-batch runs it in CI): where every
// damaged level of the sparse shape is evaluated whole
// (graphWholeFaults), the fused multi-lane DAG sweep must clearly beat
// the one-at-a-time scalar engine — the shape of the lane-by-lane
// fallback it replaced — and must agree with it bitwise lane for lane
// before any timing. Same protocol as the other speed smokes:
// interleaved best-of-rounds, a 1.5x assertion below the measured gap,
// armed only under the bench target's env flag.
func TestGraphBatchSpeedSmoke(t *testing.T) {
	if os.Getenv("NEUROFAIL_BENCH_GRAPH_BATCH") == "" {
		t.Skip("timing smoke; run via make bench-graph-batch (NEUROFAIL_BENCH_GRAPH_BATCH=1)")
	}
	g, plans, traces := benchGraphBatchFixture(t, graphWholeFaults)
	for p, plan := range plans {
		cp := fault.Compile(g, plan)
		whole := 0
		for l := 1; l <= g.NumLayers(); l++ {
			switch n := cp.RecomputedRows(l); n {
			case 0:
			case g.Width(l):
				whole++
			default:
				t.Fatalf("plan %d re-sums %d of level %d's %d rows: the fixture left the whole-level regime", p, n, l, g.Width(l))
			}
		}
		if whole == 0 {
			t.Fatalf("plan %d evaluates no level whole", p)
		}
	}
	inj := neurofail.Crash()
	cps := make([]*neurofail.CompiledPlan, len(plans))
	for p, plan := range plans {
		cps[p] = fault.Compile(g, plan)
	}
	bp := neurofail.CompileBatch(g, neurofail.BatchLanes)
	injs := make([]fault.Injector, len(plans))
	for p := range injs {
		injs[p] = inj
	}
	out := make([]float64, len(plans))
	bp.Reset(plans)
	for _, tr := range traces {
		bp.ErrorsOnTrace(injs, tr, out)
		for p := range plans {
			if want := cps[p].ErrorOnTrace(inj, tr); out[p] != want {
				t.Fatalf("lane %d: batched %v != scalar %v: the fused DAG sweep changed the answer", p, out[p], want)
			}
		}
	}
	const (
		rounds = 6
		reps   = 3
	)
	var sink float64
	scalarSweep := func() {
		for _, cp := range cps {
			for _, tr := range traces {
				sink += cp.ErrorOnTrace(inj, tr)
			}
		}
	}
	batchedSweep := func() {
		bp.Reset(plans)
		for _, tr := range traces {
			bp.ErrorsOnTrace(injs, tr, out)
			sink += out[0]
		}
	}
	time1 := func(sweep func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			sweep()
		}
		return time.Since(start)
	}
	scalarSweep() // warm pools and caches
	batchedSweep()
	scalar := time.Duration(math.MaxInt64)
	batched := time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		if d := time1(scalarSweep); d < scalar {
			scalar = d
		}
		if d := time1(batchedSweep); d < batched {
			batched = d
		}
	}
	_ = sink
	if batched*15 >= scalar*10 {
		t.Fatalf("batched graph sweep (best %v/%d reps) not clearly faster than scalar (best %v/%d reps): has the multi-lane CSR path regressed?",
			batched, reps, scalar, reps)
	}
	t.Logf("scalar %v, batched %v (%.2fx), best of %d rounds x %d reps", scalar, batched, float64(scalar)/float64(batched), rounds, reps)
}
