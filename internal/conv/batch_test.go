package conv

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

// TestBatchMatchesScalarConvModel pins the batched engine on conv
// models, whose lanes reach LayerSumsLanes (paired ConvAcc2 sweeps plus
// an odd lane through ConvAcc) via the layered view — the results must
// be bit-identical to the one-at-a-time oracle.
func TestBatchMatchesScalarConvModel(t *testing.T) {
	r := rng.New(109)
	net, err := NewRandom(r, 12, []int{3, 3}, []int{2, 1}, activation.NewSigmoid(1), 0.8, true)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float64, 4)
	for i := range inputs {
		x := make([]float64, 12)
		r.Floats(x, 0, 1)
		inputs[i] = x
	}
	traces := fault.CleanTraces(net, inputs)
	plans := []fault.Plan{
		{},
		fault.RandomNeuronPlan(r, net, []int{2, 1}),
		fault.RandomNeuronPlan(r, net, []int{1, 2}),
		{Neurons: []fault.NeuronFault{{Layer: 2, Index: 0}}},
	}
	bp := fault.CompileBatch(net, len(plans))
	bp.Reset(plans)
	injs := make([]fault.Injector, len(plans))
	for p := range injs {
		injs[p] = fault.Byzantine{C: 0.5, Sem: core.DeviationCap}
	}
	out := make([]float64, len(plans))
	for _, tr := range traces {
		bp.ErrorsOnTrace(injs, tr, out)
		for p, plan := range plans {
			want := fault.Compile(net, plan).ErrorOnTrace(injs[p], tr)
			if out[p] != want {
				t.Fatalf("conv lane %d: batched %v != scalar %v", p, out[p], want)
			}
		}
	}
}

// TestLayerSumsLanesMatchesLayerSums: every lane of the paired conv
// lane kernel — pairs through ConvAcc2, an odd last lane through
// ConvAcc — is bitwise the single-lane LayerSums, for 1 to 5 lanes,
// with a lane sharing another's input.
func TestLayerSumsLanesMatchesLayerSums(t *testing.T) {
	n1, _ := test1D(t, 24)
	n2, _ := test2D(t, 25)
	r := rng.New(26)
	for _, m := range []nn.Model{n1, n2} {
		ls := m.(nn.LaneSummer)
		for l := 1; l <= m.NumLayers(); l++ {
			for lanes := 1; lanes <= 5; lanes++ {
				ys := make([][]float64, lanes)
				dsts := make([][]float64, lanes)
				for k := range ys {
					ys[k] = make([]float64, m.Width(l-1))
					r.Floats(ys[k], -1, 1)
					dsts[k] = make([]float64, m.Width(l))
				}
				if lanes >= 3 {
					ys[2] = ys[0]
				}
				ls.LayerSumsLanes(l, dsts, ys)
				want := make([]float64, m.Width(l))
				for k := range ys {
					m.LayerSums(l, want, ys[k], nil)
					for i := range want {
						if math.Float64bits(dsts[k][i]) != math.Float64bits(want[i]) {
							t.Fatalf("%T layer %d, %d lanes: lane %d row %d = %v, LayerSums %v", m, l, lanes, k, i, dsts[k][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestWorstCaseNativeEqualsLowered: the tree-structured worst-case
// search on a native conv model — level-scheduled through its layered
// view, with the paired conv lane kernel — is bitwise the search on the
// lowered dense network, pruned and unpruned: same worst error, same
// first-attaining tree index and plan, same visited/pruned split
// (sequential walks keep the counters deterministic).
func TestWorstCaseNativeEqualsLowered(t *testing.T) {
	n1, d1 := test1D(t, 27)
	n2, d2 := test2D(t, 28)
	cases := []struct {
		name            string
		native, lowered nn.Model
		perLayer        []int
	}{
		{"1d", n1, d1, []int{2, 1}},
		{"2d", n2, d2, []int{1, 1}},
	}
	injs := []fault.Injector{fault.Crash{}, fault.Byzantine{C: 0.5, Sem: core.DeviationCap}}
	for _, tc := range cases {
		inputs := metrics.RandomPoints(rng.New(29), tc.native.Width(0), 4)
		for _, inj := range injs {
			for _, prune := range []bool{false, true} {
				run := func(m nn.Model) fault.SearchState {
					w, err := fault.NewWorstCase(m, tc.perLayer, inputs, fault.WorstCaseOptions{
						Injector: inj, Prune: prune, Sequential: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					st := fault.NewSearchState()
					if err := w.Search(context.Background(), 0, w.Total(), &st); err != nil {
						t.Fatal(err)
					}
					return st
				}
				got, want := run(tc.native), run(tc.lowered)
				if math.Float64bits(got.WorstError) != math.Float64bits(want.WorstError) ||
					got.WorstFlat != want.WorstFlat || !reflect.DeepEqual(got.WorstPlan, want.WorstPlan) ||
					got.Visited != want.Visited || got.Pruned != want.Pruned {
					t.Fatalf("%s %T prune=%v: native %+v != lowered %+v", tc.name, inj, prune, got, want)
				}
				if got.WorstFlat < 0 {
					t.Fatalf("%s %T prune=%v: no configuration recorded", tc.name, inj, prune)
				}
			}
		}
	}
}
