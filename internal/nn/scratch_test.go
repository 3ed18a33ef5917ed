package nn

import (
	"testing"

	"repro/internal/activation"
	"repro/internal/rng"
)

func scratchNets(r *rng.Rand) []*Network {
	return []*Network{
		NewRandom(r, Config{InputDim: 3, Widths: []int{8, 6, 4}, Act: activation.NewSigmoid(1)}, 0.7),
		NewRandom(r, Config{InputDim: 2, Widths: []int{5, 5}, Act: activation.NewTanh(0.5), Bias: true}, 0.6),
	}
}

// TestForwardIntoMatchesForward checks bit-for-bit agreement between a
// reused Scratch and the pooled forward pass.
func TestForwardIntoMatchesForward(t *testing.T) {
	r := rng.New(7)
	for _, net := range scratchNets(r) {
		sc := NewScratch(net)
		for i := 0; i < 20; i++ {
			x := make([]float64, net.InputDim)
			r.Floats(x, 0, 1)
			if got, want := ForwardModel(net, sc, x), net.Forward(x); got != want {
				t.Fatalf("ForwardModel %v != Forward %v", got, want)
			}
		}
	}
}

// TestForwardIntoZeroAllocs asserts the scratch path allocates nothing
// in the steady state.
func TestForwardIntoZeroAllocs(t *testing.T) {
	r := rng.New(9)
	net := NewRandom(r, Config{InputDim: 4, Widths: []int{16, 16}, Act: activation.NewSigmoid(1), Bias: true}, 0.5)
	sc := NewScratch(net)
	x := []float64{0.1, 0.9, 0.4, 0.6}
	ForwardModel(net, sc, x)
	if allocs := testing.AllocsPerRun(100, func() { ForwardModel(net, sc, x) }); allocs != 0 {
		t.Errorf("ForwardModel: %v allocs per run, want 0", allocs)
	}
}

// TestForwardBatchGEMMRejectsBadInput pins the dimension check on the
// GEMM path: a wrong-length input must panic like the matvec path does,
// not be silently zero-padded.
func TestForwardBatchGEMMRejectsBadInput(t *testing.T) {
	r := rng.New(12)
	net := NewRandom(r, Config{InputDim: 3, Widths: []int{4}, Act: activation.NewSigmoid(1)}, 0.5)
	xs := make([][]float64, gemmBatchMin+4)
	for i := range xs {
		xs[i] = make([]float64, 3)
	}
	xs[5] = []float64{0.1, 0.2} // too short
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-length batch input")
		}
	}()
	net.ForwardBatch(xs)
}

// TestForwardBatchPathsMatchForward covers both the pooled small-batch
// path and the GEMM large-batch path, bit for bit.
func TestForwardBatchPathsMatchForward(t *testing.T) {
	r := rng.New(10)
	for _, net := range scratchNets(r) {
		for _, batch := range []int{1, 3, gemmBatchMin - 1, gemmBatchMin, 64} {
			xs := make([][]float64, batch)
			for i := range xs {
				xs[i] = make([]float64, net.InputDim)
				r.Floats(xs[i], 0, 1)
			}
			got := net.ForwardBatch(xs)
			for i, x := range xs {
				if want := net.Forward(x); got[i] != want {
					t.Fatalf("batch %d input %d: %v != %v", batch, i, got[i], want)
				}
			}
		}
	}
}
