package fault_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/fault/faulttest"
	"repro/internal/rng"
)

// The tests against the flat reference oracle live in the external test
// package: faulttest imports fault, so package fault's own tests cannot
// import it.

// TestTreeMatchesFlatCrash cross-checks the tree engine (pruned,
// parallel) against the flat reference oracle over ragged shapes.
func TestTreeMatchesFlatCrash(t *testing.T) {
	r := rng.New(41)
	cases := []struct {
		widths   []int
		perLayer []int
	}{
		{[]int{6, 4}, []int{2, 1}},
		{[]int{5, 4, 3}, []int{1, 1, 2}},
		{[]int{4, 3, 4}, []int{1, 0, 2}},
		{[]int{4, 5, 3}, []int{1, 2, 0}}, // trailing fault-free suffix
		{[]int{9}, []int{3}},
		{[]int{3, 3}, []int{0, 0}}, // empty plan
	}
	for _, tc := range cases {
		n := fault.RandomSigmoidNet(r, tc.widths, 1)
		inputs := fault.RandomInputs(r, 2, 7)
		tree, err := fault.ExhaustiveWorstCrash(n, tc.perLayer, inputs, 1_000_000)
		if err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
		flat, err := faulttest.ExhaustiveWorstCrashFlat(n, tc.perLayer, inputs, 1_000_000)
		if err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
		if tree.WorstError != flat.WorstError {
			t.Fatalf("%v: tree worst %v != flat worst %v (must be bit-identical)", tc, tree.WorstError, flat.WorstError)
		}
		if tree.Configurations != flat.Configurations {
			t.Fatalf("%v: configuration counts differ: %d vs %d", tc, tree.Configurations, flat.Configurations)
		}
		if tree.Visited+tree.Pruned != tree.Configurations {
			t.Fatalf("%v: visited %d + pruned %d != %d", tc, tree.Visited, tree.Pruned, tree.Configurations)
		}
		// The reported plan must attain the reported error exactly (the
		// engines may differ under exact ties, where both plans attain).
		if len(tree.WorstPlan.Neurons) > 0 || tree.WorstError > 0 {
			if e := fault.MaxError(n, tree.WorstPlan, fault.Crash{}, inputs); e != tree.WorstError {
				t.Fatalf("%v: tree plan attains %v, claimed %v", tc, e, tree.WorstError)
			}
		}
	}
}

// TestFlatMergeFirstAttaining is the regression for the cross-worker
// reduction bug: with equal-error configurations straddling a worker
// shard boundary, the flat engine's final merge must keep the EARLIEST
// shard's plan (the old `>=` let the last shard win).
func TestFlatMergeFirstAttaining(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // 4 workers, 4 configs -> 1 config per shard
	defer runtime.GOMAXPROCS(prev)
	n := fault.SymmetricNet()
	inputs := [][]float64{{0.2, 0.7}, {0.9, 0.1}}
	res, err := faulttest.ExhaustiveWorstCrashFlat(n, []int{1}, inputs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.NeuronFault{{Layer: 1, Index: 0}}
	if !reflect.DeepEqual(res.WorstPlan.Neurons, want) {
		t.Fatalf("flat merge picked %v, want first-attaining %v", res.WorstPlan.Neurons, want)
	}
}

// TestFlatOracleErrors: the flat oracle rejects malformed distributions
// with errors, like the tree engine it checks.
func TestFlatOracleErrors(t *testing.T) {
	r := rng.New(45)
	n := fault.RandomSigmoidNet(r, []int{4, 3}, 1)
	inputs := fault.RandomInputs(r, 2, 2)
	if _, err := faulttest.ExhaustiveWorstCrashFlat(n, []int{1}, inputs, 1000); err == nil {
		t.Fatal("ExhaustiveWorstCrashFlat must error on bad perLayer length")
	}
}
