package fault

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// twoLayerNet: 2 inputs -> 2 hidden (identity) -> output [2, -3].
func twoLayerNet() *nn.Network {
	return &nn.Network{
		InputDim: 2,
		Act:      activation.Identity{},
		Hidden:   []*tensor.Matrix{tensor.FromRows([][]float64{{1, -1}, {0.5, 0.5}})},
		Output:   []float64{2, -3},
	}
}

func randomSigmoidNet(r *rng.Rand, widths []int, k float64) *nn.Network {
	return nn.NewRandom(r, nn.Config{
		InputDim: 2,
		Widths:   widths,
		Act:      activation.NewSigmoid(k),
	}, 1)
}

func randomInputs(r *rng.Rand, d, n int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		r.Floats(xs[i], 0, 1)
	}
	return xs
}

func TestCrashForwardHandComputed(t *testing.T) {
	n := twoLayerNet()
	x := []float64{1, 0}
	// Nominal: s = (1, 0.5); out = 2 - 1.5 = 0.5.
	// Crash neuron 0 of layer 1: out = 0 - 3*0.5 = -1.5.
	p := Plan{Neurons: []NeuronFault{{Layer: 1, Index: 0}}}
	got := Forward(n, p, Crash{}, x)
	if math.Abs(got+1.5) > 1e-15 {
		t.Fatalf("crashed forward = %v, want -1.5", got)
	}
	if e := ErrorOn(n, p, Crash{}, x); math.Abs(e-2.0) > 1e-15 {
		t.Fatalf("ErrorOn = %v, want 2.0", e)
	}
}

func TestCrashAllNeurons(t *testing.T) {
	n := twoLayerNet()
	p := Plan{Neurons: []NeuronFault{{1, 0}, {1, 1}}}
	got := Forward(n, p, Crash{}, []float64{0.3, 0.9})
	if got != 0 {
		t.Fatalf("all-crashed output = %v, want 0 (no bias)", got)
	}
}

func TestByzantineDeviationSemantics(t *testing.T) {
	n := twoLayerNet()
	x := []float64{1, 0}
	p := Plan{Neurons: []NeuronFault{{Layer: 1, Index: 1}}}
	inj := Byzantine{C: 2, Sem: core.DeviationCap}
	// Neuron 1 nominal 0.5 -> 2.5; out = 2*1 - 3*2.5 = -5.5.
	got := Forward(n, p, inj, x)
	if math.Abs(got+5.5) > 1e-15 {
		t.Fatalf("byzantine forward = %v, want -5.5", got)
	}
	// Negative sign: 0.5 - 2 = -1.5; out = 2 + 4.5 = 6.5.
	inj.Sign = map[NeuronFault]float64{{Layer: 1, Index: 1}: -1}
	got = Forward(n, p, inj, x)
	if math.Abs(got-6.5) > 1e-15 {
		t.Fatalf("byzantine negative forward = %v, want 6.5", got)
	}
}

func TestByzantineTransmissionSemantics(t *testing.T) {
	n := twoLayerNet()
	x := []float64{1, 0}
	p := Plan{Neurons: []NeuronFault{{Layer: 1, Index: 0}}}
	inj := Byzantine{C: 7, Sem: core.TransmissionCap}
	// Neuron emits exactly +7 regardless of nominal: out = 14 - 1.5 = 12.5.
	got := Forward(n, p, inj, x)
	if math.Abs(got-12.5) > 1e-15 {
		t.Fatalf("transmission-cap forward = %v, want 12.5", got)
	}
}

func TestSynapseCrashEqualsZeroedWeight(t *testing.T) {
	r := rng.New(1)
	n := randomSigmoidNet(r, []int{4, 3}, 1)
	sf := SynapseFault{Layer: 2, To: 1, From: 2}
	p := Plan{Synapses: []SynapseFault{sf}}
	inputs := randomInputs(r, 2, 20)

	zeroed := n.Clone()
	zeroed.Hidden[1].Set(1, 2, 0)

	for _, x := range inputs {
		a := Forward(n, p, Crash{}, x)
		b := zeroed.Forward(x)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("crashed synapse %v != zeroed weight %v", a, b)
		}
	}
}

func TestOutputSynapseCrash(t *testing.T) {
	n := twoLayerNet()
	x := []float64{1, 0}
	p := Plan{Synapses: []SynapseFault{{Layer: 2, To: 0, From: 1}}}
	// Output synapse from hidden neuron 1 stops: out = 2*1 = 2.
	got := Forward(n, p, Crash{}, x)
	if math.Abs(got-2) > 1e-15 {
		t.Fatalf("output synapse crash = %v, want 2", got)
	}
}

func TestPlanValidate(t *testing.T) {
	n := twoLayerNet()
	good := Plan{
		Neurons:  []NeuronFault{{1, 0}},
		Synapses: []SynapseFault{{2, 0, 1}},
	}
	if err := good.Validate(n); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{Neurons: []NeuronFault{{2, 0}}},                 // layer out of range
		{Neurons: []NeuronFault{{1, 5}}},                 // index out of range
		{Neurons: []NeuronFault{{1, 0}, {1, 0}}},         // duplicate
		{Synapses: []SynapseFault{{3, 0, 0}}},            // layer out of range
		{Synapses: []SynapseFault{{1, 0, 7}}},            // sender out of range
		{Synapses: []SynapseFault{{2, 0, 0}, {2, 0, 0}}}, // duplicate
	}
	for i, p := range bad {
		if p.Validate(n) == nil {
			t.Fatalf("bad plan %d accepted", i)
		}
	}
}

func TestPerLayerDistributions(t *testing.T) {
	p := Plan{
		Neurons:  []NeuronFault{{1, 0}, {1, 1}, {3, 2}},
		Synapses: []SynapseFault{{4, 0, 1}, {1, 0, 0}},
	}
	nl := p.PerLayerNeurons(3)
	if nl[0] != 2 || nl[1] != 0 || nl[2] != 1 {
		t.Fatalf("PerLayerNeurons = %v", nl)
	}
	sl := p.PerLayerSynapses(3)
	if sl[0] != 1 || sl[3] != 1 {
		t.Fatalf("PerLayerSynapses = %v", sl)
	}
}

func TestRandomNeuronPlanCounts(t *testing.T) {
	r := rng.New(2)
	n := randomSigmoidNet(r, []int{5, 4, 3}, 1)
	p := RandomNeuronPlan(r, n, []int{2, 0, 3})
	if err := p.Validate(n); err != nil {
		t.Fatal(err)
	}
	d := p.PerLayerNeurons(3)
	if d[0] != 2 || d[1] != 0 || d[2] != 3 {
		t.Fatalf("distribution = %v", d)
	}
}

func TestAdversarialPlanPicksTopWeights(t *testing.T) {
	n := twoLayerNet() // output weights [2, -3]: neuron 1 has larger |w|
	p := AdversarialNeuronPlan(n, []int{1})
	if len(p.Neurons) != 1 || p.Neurons[0].Index != 1 {
		t.Fatalf("adversary picked %v, want neuron 1", p.Neurons)
	}
}

func TestAdversarialPlanHiddenLayerScoring(t *testing.T) {
	// Three hidden neurons; neuron 2 has the largest outgoing weight into
	// layer 2.
	n := &nn.Network{
		InputDim: 1,
		Act:      activation.Identity{},
		Hidden: []*tensor.Matrix{
			tensor.FromRows([][]float64{{1}, {1}, {1}}),
			tensor.FromRows([][]float64{{0.1, 0.2, 5.0}}),
		},
		Output: []float64{1},
	}
	p := AdversarialNeuronPlan(n, []int{1, 0})
	if len(p.Neurons) != 1 || p.Neurons[0].Layer != 1 || p.Neurons[0].Index != 2 {
		t.Fatalf("adversary picked %v, want layer-1 neuron 2", p.Neurons)
	}
}

func TestRandomSynapsePlan(t *testing.T) {
	r := rng.New(3)
	n := randomSigmoidNet(r, []int{4, 3}, 1)
	p := RandomSynapsePlan(r, n, []int{2, 3, 1})
	if err := p.Validate(n); err != nil {
		t.Fatal(err)
	}
	d := p.PerLayerSynapses(2)
	if d[0] != 2 || d[1] != 3 || d[2] != 1 {
		t.Fatalf("synapse distribution = %v", d)
	}
}

// TestRandomSynapsePlanDenseDrawPinned pins seeded synapse plans on a
// dense net to the virtual-dense formula — one r.Sample(N_l·N_{l-1}, k)
// per layer, flat draw e landing on To = e / N_{l-1},
// From = e mod N_{l-1} — so stored seeded plans stay reproducible.
func TestRandomSynapsePlanDenseDrawPinned(t *testing.T) {
	n := randomSigmoidNet(rng.New(5), []int{7, 5, 6}, 1)
	perLayer := []int{3, 0, 4, 2}
	for seed := uint64(1); seed <= 8; seed++ {
		got := RandomSynapsePlan(rng.New(seed), n, perLayer)
		r := rng.New(seed)
		var want []SynapseFault
		for l := 1; l <= n.NumLayers()+1; l++ {
			cols := n.Width(l - 1)
			for _, flat := range r.Sample(n.Width(l)*cols, perLayer[l-1]) {
				want = append(want, SynapseFault{Layer: l, To: flat / cols, From: flat % cols})
			}
		}
		if !reflect.DeepEqual(got.Synapses, want) {
			t.Fatalf("seed %d: plan %v, want the virtual-dense draw %v", seed, got.Synapses, want)
		}
	}
}

func TestAdversarialSynapsePlanPicksLargest(t *testing.T) {
	n := twoLayerNet()
	p := AdversarialSynapsePlan(n, []int{0, 1})
	// Output weights are [2, -3]: the largest output synapse is from 1.
	if len(p.Synapses) != 1 || p.Synapses[0].From != 1 || p.Synapses[0].Layer != 2 {
		t.Fatalf("adversarial synapse = %v", p.Synapses)
	}
}

func TestMaxErrorParallelMatchesSeq(t *testing.T) {
	r := rng.New(4)
	n := randomSigmoidNet(r, []int{6, 5}, 1.5)
	p := RandomNeuronPlan(r, n, []int{2, 1})
	inputs := randomInputs(r, 2, 200)
	a := MaxError(n, p, Crash{}, inputs)
	b := MaxErrorSeq(n, p, Crash{}, inputs)
	if math.Abs(a-b) > 1e-15 {
		t.Fatalf("parallel %v != sequential %v", a, b)
	}
}

func TestWorstSignErrorDominatesFixedSigns(t *testing.T) {
	r := rng.New(5)
	n := randomSigmoidNet(r, []int{5, 4}, 1)
	p := RandomNeuronPlan(r, n, []int{2, 1})
	inputs := randomInputs(r, 2, 30)
	base := Byzantine{C: 0.5, Sem: core.DeviationCap}
	worst := WorstSignError(n, p, base, inputs)
	plain := MaxError(n, p, base, inputs)
	if worst < plain-1e-12 {
		t.Fatalf("worst-sign %v < all-positive %v", worst, plain)
	}
}

func TestWorstSignErrorRefusesHugePlans(t *testing.T) {
	r := rng.New(6)
	n := randomSigmoidNet(r, []int{20}, 1)
	p := RandomNeuronPlan(r, n, []int{17})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 17 sign bits")
		}
	}()
	WorstSignError(n, p, Byzantine{C: 1}, randomInputs(r, 2, 1))
}

func TestCombinationsEnumeratesAll(t *testing.T) {
	var got [][]int
	Combinations(5, 3, func(idx []int) {
		got = append(got, append([]int(nil), idx...))
	})
	if len(got) != 10 {
		t.Fatalf("C(5,3) enumerated %d combos, want 10", len(got))
	}
	seen := map[[3]int]bool{}
	for _, c := range got {
		if !(c[0] < c[1] && c[1] < c[2]) {
			t.Fatalf("combination not increasing: %v", c)
		}
		key := [3]int{c[0], c[1], c[2]}
		if seen[key] {
			t.Fatalf("duplicate combination %v", c)
		}
		seen[key] = true
	}
}

func TestCombinationsEdges(t *testing.T) {
	count := 0
	Combinations(4, 0, func(idx []int) { count++ })
	if count != 1 {
		t.Fatalf("C(4,0) enumerated %d times", count)
	}
	count = 0
	Combinations(4, 4, func(idx []int) { count++ })
	if count != 1 {
		t.Fatalf("C(4,4) enumerated %d times", count)
	}
}

func TestCountConfigurations(t *testing.T) {
	if got, err := CountConfigurations([]int{5, 4}, []int{2, 1}); err != nil || got != 40 {
		t.Fatalf("CountConfigurations = %d, %v, want C(5,2)*C(4,1) = 40", got, err)
	}
	if got, err := CountConfigurations([]int{3}, []int{0}); err != nil || got != 1 {
		t.Fatalf("zero faults should count 1 configuration, got %d, %v", got, err)
	}
	if got, err := CountConfigurations([]int{200, 200}, []int{100, 100}); err != nil || got != math.MaxInt64 {
		t.Fatalf("expected overflow sentinel, got %d, %v", got, err)
	}
	if _, err := CountConfigurations([]int{5, 4}, []int{1}); err == nil {
		t.Fatal("length mismatch must error, not panic")
	}
}

func TestExhaustiveWorstCrashBeatsRandom(t *testing.T) {
	r := rng.New(7)
	n := randomSigmoidNet(r, []int{6, 4}, 1)
	perLayer := []int{2, 1}
	inputs := randomInputs(r, 2, 15)
	res, err := ExhaustiveWorstCrash(n, perLayer, inputs, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CountConfigurations(n.Widths(), perLayer)
	if err != nil || res.Configurations != want {
		t.Fatalf("configuration count mismatch: %d vs %d (%v)", res.Configurations, want, err)
	}
	if res.Visited+res.Pruned != res.Configurations {
		t.Fatalf("visited %d + pruned %d != %d configurations", res.Visited, res.Pruned, res.Configurations)
	}
	// The exhaustive worst case must dominate any sampled plan.
	for trial := 0; trial < 20; trial++ {
		p := RandomNeuronPlan(r, n, perLayer)
		e := MaxError(n, p, Crash{}, inputs)
		if e > res.WorstError+1e-12 {
			t.Fatalf("random plan error %v exceeds exhaustive worst %v", e, res.WorstError)
		}
	}
	// And it must be attained by its reported plan.
	e := MaxError(n, res.WorstPlan, Crash{}, inputs)
	if math.Abs(e-res.WorstError) > 1e-12 {
		t.Fatalf("reported plan attains %v, claimed %v", e, res.WorstError)
	}
}

func TestExhaustiveRefusesExplosion(t *testing.T) {
	r := rng.New(8)
	n := randomSigmoidNet(r, []int{30, 30}, 1)
	_, err := ExhaustiveWorstCrash(n, []int{15, 15}, randomInputs(r, 2, 1), 1000)
	if err == nil {
		t.Fatal("expected refusal for combinatorial explosion")
	}
}

func TestAdversarialBeatsAverageRandom(t *testing.T) {
	// The adversarial plan should be at least as damaging as the mean
	// random plan (it targets the heaviest weights).
	r := rng.New(9)
	n := randomSigmoidNet(r, []int{8}, 1)
	inputs := randomInputs(r, 2, 40)
	adv := MaxError(n, AdversarialNeuronPlan(n, []int{2}), Crash{}, inputs)
	sum := 0.0
	const trials = 30
	for i := 0; i < trials; i++ {
		sum += MaxError(n, RandomNeuronPlan(r, n, []int{2}), Crash{}, inputs)
	}
	if adv < sum/trials {
		t.Fatalf("adversarial %v below mean random %v", adv, sum/trials)
	}
}
