package fault

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/activation"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// treeOracle enumerates [0, w.Total()) in tree order with fresh
// compiled scalar evaluations — the ground truth the tree engine must
// reproduce bit-for-bit, including the first-attaining tie-break.
func treeOracle(t *testing.T, n nn.Model, w *WorstCase, inj Injector, inputs [][]float64) SearchState {
	t.Helper()
	traces := CleanTraces(n, inputs)
	st := NewSearchState()
	for flat := int64(0); flat < w.Total(); flat++ {
		plan := w.PlanAt(flat)
		cp := Compile(n, plan)
		worst := 0.0
		for _, tr := range traces {
			if e := cp.ErrorOnTrace(inj, tr); e > worst {
				worst = e
			}
		}
		st.Visited++
		if worst > st.WorstError {
			st.WorstError = worst
			st.WorstFlat = flat
			st.WorstPlan = plan.Neurons
		}
	}
	return st
}

func assertStatesEqual(t *testing.T, label string, got, want SearchState) {
	t.Helper()
	if got.WorstError != want.WorstError {
		t.Fatalf("%s: WorstError %v != %v (must be bit-identical)", label, got.WorstError, want.WorstError)
	}
	if got.WorstFlat != want.WorstFlat {
		t.Fatalf("%s: WorstFlat %d != %d", label, got.WorstFlat, want.WorstFlat)
	}
	if !reflect.DeepEqual(got.WorstPlan, want.WorstPlan) {
		t.Fatalf("%s: WorstPlan %v != %v", label, got.WorstPlan, want.WorstPlan)
	}
}

// TestTreePrunedMatchesUnpruned: pruning must be invisible in the
// result — same error, same first-attaining index, same plan.
func TestTreePrunedMatchesUnpruned(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 5; trial++ {
		widths := []int{3 + r.Intn(4), 3 + r.Intn(4)}
		perLayer := []int{1 + r.Intn(2), 1 + r.Intn(2)}
		n := randomSigmoidNet(r, widths, 1+r.Float64())
		inputs := randomInputs(r, 2, 5)
		run := func(prune bool) (SearchState, int64) {
			w, err := NewWorstCase(n, perLayer, inputs, WorstCaseOptions{Prune: prune, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			st := NewSearchState()
			if err := w.Search(context.Background(), 0, w.Total(), &st); err != nil {
				t.Fatal(err)
			}
			return st, w.Total()
		}
		pruned, total := run(true)
		unpruned, _ := run(false)
		assertStatesEqual(t, "pruned vs unpruned", pruned, unpruned)
		if unpruned.Visited != total || unpruned.Pruned != 0 {
			t.Fatalf("unpruned walk visited %d/pruned %d of %d", unpruned.Visited, unpruned.Pruned, total)
		}
		if pruned.Visited+pruned.Pruned != total {
			t.Fatalf("pruned walk visited %d + pruned %d != %d", pruned.Visited, pruned.Pruned, total)
		}
	}
}

// TestTreeMatchesScalarOracleAllModels: for every deterministic
// registered fault model, the pruned tree search is bit-identical to a
// fresh scalar compiled evaluation of every configuration in tree order.
func TestTreeMatchesScalarOracleAllModels(t *testing.T) {
	r := rng.New(43)
	n := randomSigmoidNet(r, []int{5, 4}, 1.3)
	inputs := randomInputs(r, 2, 6)
	perLayer := []int{1, 2}
	for _, m := range Models() {
		if !m.Deterministic {
			continue
		}
		inj, err := m.New(Params{C: 0.8, Value: 0.7, Bits: 8, Bit: 6, Net: n})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, prune := range []bool{false, true} {
			w, err := NewWorstCase(n, perLayer, inputs, WorstCaseOptions{
				Injector: inj, Prune: prune, Sequential: true,
			})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			st := NewSearchState()
			if err := w.Search(context.Background(), 0, w.Total(), &st); err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			want := treeOracle(t, n, w, inj, inputs)
			assertStatesEqual(t, m.Name, st, want)
		}
	}
}

// TestTreeStochasticTwinSeeded: with faults confined to the deepest
// faulty layer and a sequential walk, the tree engine consumes its
// random stream in exactly the scalar oracle's order, so twin-seeded
// injectors must agree bit-for-bit.
func TestTreeStochasticTwinSeeded(t *testing.T) {
	r := rng.New(44)
	n := randomSigmoidNet(r, []int{5, 4}, 1)
	inputs := randomInputs(r, 2, 4)
	perLayer := []int{0, 2}
	for _, name := range []string{"intermittent", "byzantine-random", "noise"} {
		m, ok := Lookup(name)
		if !ok {
			t.Fatalf("model %q not registered", name)
		}
		if m.Deterministic {
			t.Fatalf("model %q unexpectedly deterministic", name)
		}
		const seed = 77
		injTree, err := m.New(Params{C: 0.6, Prob: 0.4, R: rng.New(seed)})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorstCase(n, perLayer, inputs, WorstCaseOptions{
			Injector: injTree, Sequential: true, // no pruning: stochastic
		})
		if err != nil {
			t.Fatal(err)
		}
		st := NewSearchState()
		if err := w.Search(context.Background(), 0, w.Total(), &st); err != nil {
			t.Fatal(err)
		}
		injOracle, err := m.New(Params{C: 0.6, Prob: 0.4, R: rng.New(seed)})
		if err != nil {
			t.Fatal(err)
		}
		want := treeOracle(t, n, w, injOracle, inputs)
		assertStatesEqual(t, name, st, want)
	}
}

// symmetricNet has four indistinguishable hidden neurons, so every
// single-crash configuration attains exactly the same error — the tie
// case that exercises first-attaining semantics.
func symmetricNet() *nn.Network {
	row := []float64{0.5, -0.25}
	return &nn.Network{
		InputDim: 2,
		Act:      activation.NewSigmoid(1),
		Hidden:   []*tensor.Matrix{tensor.FromRows([][]float64{row, row, row, row})},
		Output:   []float64{0.8, 0.8, 0.8, 0.8},
	}
}

// TestTreeSearchSplitMerge: sharding at arbitrary boundaries plus the
// flat-order Merge reduction must reproduce the sequential result,
// including the smallest-index winner under exact ties.
func TestTreeSearchSplitMerge(t *testing.T) {
	n := symmetricNet()
	inputs := [][]float64{{0.2, 0.7}, {0.9, 0.1}, {0.5, 0.5}}
	w, err := NewWorstCase(n, []int{1}, inputs, WorstCaseOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	full := NewSearchState()
	if err := w.RunRange(context.Background(), 0, w.Total(), &full); err != nil {
		t.Fatal(err)
	}
	if full.WorstFlat != 0 {
		t.Fatalf("tie must record the first configuration, got flat %d", full.WorstFlat)
	}
	if !reflect.DeepEqual(full.WorstPlan, []NeuronFault{{Layer: 1, Index: 0}}) {
		t.Fatalf("tie plan %v, want neuron 0", full.WorstPlan)
	}
	// Ties are never pruned: all four leaves must be visited.
	if full.Visited != w.Total() || full.Pruned != 0 {
		t.Fatalf("tied leaves were pruned: visited %d, pruned %d", full.Visited, full.Pruned)
	}
	for split := int64(1); split < w.Total(); split++ {
		a, b := NewSearchState(), NewSearchState()
		if err := w.RunRange(context.Background(), 0, split, &a); err != nil {
			t.Fatal(err)
		}
		if err := w.RunRange(context.Background(), split, w.Total(), &b); err != nil {
			t.Fatal(err)
		}
		a.Merge(b)
		assertStatesEqual(t, "split merge", a, full)
		if a.Visited != full.Visited {
			t.Fatalf("split at %d visited %d, want %d", split, a.Visited, full.Visited)
		}
	}
	// The parallel Search must agree too.
	par := NewSearchState()
	if err := w.Search(context.Background(), 0, w.Total(), &par); err != nil {
		t.Fatal(err)
	}
	assertStatesEqual(t, "parallel search", par, full)
}

// TestWorstCaseErrors: malformed distributions error instead of
// panicking on every entry point reachable from serve.
func TestWorstCaseErrors(t *testing.T) {
	r := rng.New(45)
	n := randomSigmoidNet(r, []int{4, 3}, 1)
	inputs := randomInputs(r, 2, 2)
	if _, err := NewWorstCase(n, []int{1}, inputs, WorstCaseOptions{}); err == nil {
		t.Fatal("short perLayer must error")
	}
	if _, err := NewWorstCase(n, []int{1, 9}, inputs, WorstCaseOptions{}); err == nil {
		t.Fatal("out-of-range fault count must error")
	}
	if _, err := ExhaustiveWorstCrash(n, []int{1, 1, 1}, inputs, 1000); err == nil {
		t.Fatal("ExhaustiveWorstCrash must error on bad perLayer length")
	}
	if _, err := NewWorstCase(n, []int{1, 1}, nil, WorstCaseOptions{}); err == nil {
		t.Fatal("an empty input set must error, not certify the search")
	}
	if _, err := NewWorstCase(n, []int{1, 1}, nil, WorstCaseOptions{Prune: true}); err == nil {
		t.Fatal("an empty input set must error under pruning too")
	}
	bad := [][]float64{inputs[0], {0.5, 0.5, 0.5}}
	if _, err := NewWorstCase(n, []int{1, 1}, bad, WorstCaseOptions{}); err == nil {
		t.Fatal("an input of the wrong dimension must error, not panic")
	}
}

// TestWorstCaseContextCancel: a cancelled walk reports the context
// error instead of a partial result.
func TestWorstCaseContextCancel(t *testing.T) {
	r := rng.New(46)
	n := randomSigmoidNet(r, []int{8, 8}, 1)
	inputs := randomInputs(r, 2, 4)
	w, err := NewWorstCase(n, []int{2, 2}, inputs, WorstCaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Run(ctx); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestTreeDFSAllocFree pins the walker's steady state at zero
// allocations per full sweep (recording suppressed by an infinite
// floor; pruning off so every leaf is actually evaluated).
func TestTreeDFSAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	r := rng.New(47)
	n := randomSigmoidNet(r, []int{6, 5}, 1)
	inputs := randomInputs(r, 2, 3)
	w, err := NewWorstCase(n, []int{1, 2}, inputs, WorstCaseOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSearchState()
	if err := w.RunRange(context.Background(), 0, w.Total(), &warm); err != nil {
		t.Fatal(err)
	}
	st := NewSearchState()
	st.WorstError = math.Inf(1)
	avg := testing.AllocsPerRun(20, func() {
		if err := w.RunRange(context.Background(), 0, w.Total(), &st); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("DFS steady state allocates %v allocs/op, want 0", avg)
	}
}

// Test helpers shared with the external fault_test package (flat_test.go).
var (
	RandomSigmoidNet = randomSigmoidNet
	RandomInputs     = randomInputs
	SymmetricNet     = symmetricNet
)
