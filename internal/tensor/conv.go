package tensor

// Convolution kernels: sparse-row dot products that replay the EXACT
// accumulation order of Dot / MulVecAddTo over a virtual dense row.
//
// The dense matvec kernel accumulates a width-w row into four lanes —
// column c of the unrolled body lands in lane c mod 4, and the final
// w mod 4 columns (the cleanup loop) all land in lane 0 — then reduces
// lane0+lane1+lane2+lane3. Zero entries contribute exact zeros, so a
// convolutional layer (whose lowered dense row is zero outside the
// receptive field) can skip them entirely: replaying only the nonzero
// terms into the same lanes in ascending column order reproduces the
// dense result bit for bit. That identity is what lets the native conv
// forward pass stay bit-identical to evaluating the Lower/Lower2D
// network while doing R(l) multiplies per neuron instead of N_{l-1}.

// ConvAcc accumulates one virtual dense row of width w from contiguous
// nonzero segments. Segments must be added in ascending column order
// (which conv layers do naturally: channel-major, then window rows).
// The zero value is unusable; construct with NewConvAcc.
type ConvAcc struct {
	lanes [4]float64
	// cut is the first cleanup column, w &^ 3: columns at or beyond it
	// fold into lane 0, exactly like Dot's remainder loop.
	cut int
}

// NewConvAcc returns an accumulator for rows of width w.
func NewConvAcc(w int) ConvAcc { return ConvAcc{cut: w &^ 3} }

// Reset clears the lanes for the next row (the width is retained).
func (a *ConvAcc) Reset() { a.lanes = [4]float64{} }

// Add accumulates k[i]·x[off+i] for every kernel value, at absolute
// columns off..off+len(k)-1 of the virtual row.
func (a *ConvAcc) Add(k, x []float64, off int) {
	x = x[off : off+len(k)]
	if off+len(k) <= a.cut {
		// Entire segment inside the unrolled body: branch-free lanes.
		for i, kv := range k {
			a.lanes[(off+i)&3] += kv * x[i]
		}
		return
	}
	for i, kv := range k {
		if c := off + i; c < a.cut {
			a.lanes[c&3] += kv * x[i]
		} else {
			a.lanes[0] += kv * x[i]
		}
	}
}

// Sum reduces the lanes in Dot's order.
func (a *ConvAcc) Sum() float64 {
	return a.lanes[0] + a.lanes[1] + a.lanes[2] + a.lanes[3]
}

// ConvAcc2 is ConvAcc over two input vectors sharing the kernel loads —
// the sparse counterpart of the two-lane MulVecLanesAddTo (conv nets run
// their lane kernels in pairs through it).
// Each output is bit-identical to a standalone ConvAcc pass.
type ConvAcc2 struct {
	l1, l2 [4]float64
	cut    int
}

// NewConvAcc2 returns a fused accumulator for rows of width w.
func NewConvAcc2(w int) ConvAcc2 { return ConvAcc2{cut: w &^ 3} }

// Reset clears both lane sets.
func (a *ConvAcc2) Reset() {
	a.l1 = [4]float64{}
	a.l2 = [4]float64{}
}

// Add accumulates k[i]·x1[off+i] and k[i]·x2[off+i] in one sweep.
func (a *ConvAcc2) Add(k, x1, x2 []float64, off int) {
	x1 = x1[off : off+len(k)]
	x2 = x2[off : off+len(k)]
	if off+len(k) <= a.cut {
		for i, kv := range k {
			lane := (off + i) & 3
			a.l1[lane] += kv * x1[i]
			a.l2[lane] += kv * x2[i]
		}
		return
	}
	for i, kv := range k {
		lane := 0
		if c := off + i; c < a.cut {
			lane = c & 3
		}
		a.l1[lane] += kv * x1[i]
		a.l2[lane] += kv * x2[i]
	}
}

// Sums reduces both lane sets.
func (a *ConvAcc2) Sums() (s1, s2 float64) {
	return a.l1[0] + a.l1[1] + a.l1[2] + a.l1[3],
		a.l2[0] + a.l2[1] + a.l2[2] + a.l2[3]
}
