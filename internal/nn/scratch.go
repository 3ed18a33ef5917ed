package nn

import (
	"fmt"
	"sync"

	"repro/internal/activation"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Scratch holds preallocated per-level buffers for allocation-free
// forward passes. A Scratch is NOT safe for concurrent use: give each
// goroutine its own (ForwardBatchModel does this via an internal pool).
// The zero value is usable; buffers grow on first use and are reused
// afterwards, so steady-state evaluation performs no allocations.
type Scratch struct {
	// outs[l-1] receives y^{(l)}.
	outs [][]float64
	// levels[v] aliases level v's outputs during evaluation (levels[0]
	// is the input, levels[l] aliases outs[l-1]).
	levels [][]float64
	// view is the layered DAG view ForwardModel evaluates a model that
	// is not a DAGModel through; rebinding it to another model
	// allocates nothing once its level table has grown.
	view layered
}

// NewScratch returns a Scratch pre-sized for m (any Model: dense or
// convolutional).
func NewScratch(m Model) *Scratch {
	sc := &Scratch{}
	sc.ensure(m)
	return sc
}

// grow returns buf resized to length want, reusing its backing array
// when capacity allows.
func grow(buf []float64, want int) []float64 {
	if cap(buf) < want {
		return make([]float64, want)
	}
	return buf[:want]
}

// ensure sizes the buffers for m (grow-only; cheap when already sized).
func (sc *Scratch) ensure(m Model) {
	sc.outs = EnsureLayerSlices(m, 1, sc.outs)
}

// bias returns the bias vector of layer l+1 (0-based index into Hidden),
// or nil.
func (n *Network) bias(l int) []float64 {
	if n.Biases == nil {
		return nil
	}
	return n.Biases[l]
}

// scratchPool recycles Scratch values across ForwardBatchModel workers
// (and any other callers evaluating many inputs); buffers are grow-only,
// so a pooled Scratch adapts to whichever model uses it next.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch borrows a pooled Scratch sized for m; return it with
// PutScratch when done.
func GetScratch(m Model) *Scratch {
	sc := scratchPool.Get().(*Scratch)
	sc.ensure(m)
	return sc
}

// PutScratch returns a Scratch to the pool.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// gemmBatchMin is the batch size from which ForwardBatchModel evaluates
// a dense network as one matrix-matrix product per layer instead of
// per-input forwards.
const gemmBatchMin = 16

// forwardBatchGEMM evaluates the whole batch as one GEMM per layer:
// inputs are packed as the rows of X and every layer computes
// S = X W^{(l)ᵀ} (+ bias), so each weight matrix is swept once per batch
// instead of once per input. Per-row arithmetic matches ForwardModel
// exactly, so results are bit-identical.
func (n *Network) forwardBatchGEMM(out []float64, xs [][]float64) {
	batch := len(xs)
	x := tensor.NewMatrix(batch, n.InputDim)
	for i, xi := range xs {
		if len(xi) != n.InputDim {
			panic(fmt.Sprintf("nn: ForwardBatch input %d has length %d, want %d", i, len(xi), n.InputDim))
		}
		copy(x.Row(i), xi)
	}
	for l, m := range n.Hidden {
		s := tensor.NewMatrix(batch, m.Rows)
		tensor.MatMulTransBInto(s, x, m)
		b := n.bias(l)
		parallel.ForChunked(batch, 8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := s.Row(i)
				if b != nil {
					tensor.Add(row, row, b)
				}
				activation.Eval(n.Act, row, row)
			}
		})
		x = s
	}
	parallel.ForChunked(batch, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = tensor.Dot(x.Row(i), n.Output) + n.OutputBias
		}
	})
}
