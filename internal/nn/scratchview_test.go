package nn_test

import (
	"testing"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// viewModels returns one model of every kind ForwardModel serves: a
// dense net, 1-D and 2-D conv nets (layered, through the Scratch's own
// view) and a skip graph (a DAGModel), at differing depths and widths.
func viewModels(t *testing.T) []nn.Model {
	t.Helper()
	r := rng.New(41)
	act := activation.NewSigmoid(1)
	dense := nn.NewRandom(r, nn.Config{InputDim: 5, Widths: []int{12, 9, 6}, Act: act, Bias: true}, 0.6)
	c1, err := conv.NewRandom(r, 10, []int{3, 3}, []int{2, 2}, act, 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := conv.NewRandom2D(r, 7, 7, []int{3, 2}, []int{2, 2}, act, 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	var skip *graph.Net
	for skip == nil || nn.IsLayered(skip) {
		skip = graph.NewSmallWorld(r, 4, []int{16, 12, 10}, act, 2, 0.6)
	}
	return []nn.Model{dense, c1, c2, skip}
}

// TestScratchViewAcrossModels alternates one Scratch across every model
// kind: each ForwardModel must equal a fresh Scratch's answer bitwise,
// TraceModel's outputs must equal what ForwardModel left in the
// Scratch's level buffers, and a warmed Scratch must evaluate every
// model without allocating, so rebinding its view costs nothing.
func TestScratchViewAcrossModels(t *testing.T) {
	models := viewModels(t)
	r := rng.New(43)
	inputs := make([][]float64, len(models))
	for i, m := range models {
		inputs[i] = make([]float64, m.Width(0))
		r.Floats(inputs[i], 0, 1)
	}
	shared := new(nn.Scratch)
	for round := 0; round < 3; round++ {
		for i, m := range models {
			x := inputs[i]
			got := nn.ForwardModel(m, shared, x)
			if want := nn.ForwardModel(m, nn.NewScratch(m), x); got != want {
				t.Fatalf("round %d %T: shared Scratch %v != fresh %v", round, m, got, want)
			}
			tr := nn.TraceModel(m, x)
			if tr.Output != got {
				t.Fatalf("round %d %T: trace output %v != forward %v", round, m, tr.Output, got)
			}
			for l := 1; l <= m.NumLayers(); l++ {
				buf := nn.ScratchLevel(shared, l)
				for j, y := range tr.Outputs[l-1] {
					if buf[j] != y {
						t.Fatalf("round %d %T: level %d node %d: trace %v != forward %v", round, m, l, j, y, buf[j])
					}
				}
			}
		}
	}
	for i, m := range models {
		j := (i + len(models) - 1) % len(models)
		prev, xp, x := models[j], inputs[j], inputs[i]
		if a := testing.AllocsPerRun(50, func() {
			nn.ForwardModel(prev, shared, xp)
			nn.ForwardModel(m, shared, x)
		}); a != 0 {
			t.Fatalf("%T after %T: warmed shared Scratch allocates %v per run", m, prev, a)
		}
	}
}
