package conv

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/activation"
	"repro/internal/fault"
	"repro/internal/tensor"
)

// Net and Net2D implement nn.Model natively: the forward kernels below
// evaluate the convolution directly — R(l) multiplies per neuron
// instead of the N_{l-1} a lowered dense row costs — while replaying
// the dense accumulation order (tensor.ConvAcc), so every result is
// bit-identical to evaluating Lower/Lower2D's network. That identity is
// what the equivalence tests pin and what lets the fault engine, the
// bounds and the service treat conv and dense models uniformly.

// ---- 1-D ----------------------------------------------------------------

// widthAt returns the flattened width after layer l (0 = the input).
func (n *Net) widthAt(l int) int {
	w := n.InputWidth
	for i := 0; i < l; i++ {
		w = n.Layers[i].OutWidth(w)
	}
	return w
}

// NumLayers returns L.
func (n *Net) NumLayers() int { return len(n.Layers) }

// Width returns the flattened width of layer l (0 = input, L+1 = the
// output node).
func (n *Net) Width(l int) int {
	L := len(n.Layers)
	switch {
	case l == 0:
		return n.InputWidth
	case l >= 1 && l <= L:
		return n.widthAt(l)
	case l == L+1:
		return 1
	}
	panic(fmt.Sprintf("conv: Width(%d) out of range for %d layers", l, L))
}

// MaxWeight returns w_m^{(l)} over the R(l) distinct kernel values
// (l = L+1 selects the output synapses). It equals the lowered dense
// network's maximum — zeros outside the receptive field never attain
// it — which is Section VI's observation: the constraint runs over R(l)
// values instead of N_l x N_{l-1}.
func (n *Net) MaxWeight(l int) float64 {
	if l == len(n.Layers)+1 {
		return tensor.MaxAbs(n.Output)
	}
	return n.Layers[l-1].MaxWeight()
}

// Activation returns ϕ.
func (n *Net) Activation() activation.Func { return n.Act }

// anyBias reports whether any layer carries biases — the lowered dense
// network then materialises a (possibly zero) bias vector for EVERY
// layer, whose additions the native kernels must replay for bit
// identity.
func (n *Net) anyBias() bool { return hasBias(n) }

// LayerSums computes the pre-activation sums of layer l natively. skip
// is accepted per the Model contract but not exploited: a conv neuron
// costs only R(l) multiplies, so segmenting around overridden rows
// saves less than it complicates.
func (n *Net) LayerSums(l int, dst, y []float64, _ []int) {
	lay := n.Layers[l-1]
	field := lay.Field()
	positions := len(y) - field + 1
	addBias := n.anyBias()
	acc := tensor.NewConvAcc(len(y))
	for f := 0; f < lay.Filters(); f++ {
		kernel := lay.Kernels.Row(f)
		bias := 0.0
		if lay.Bias != nil {
			bias = lay.Bias[f]
		}
		base := f * positions
		for p := 0; p < positions; p++ {
			acc.Reset()
			acc.Add(kernel, y, p)
			s := acc.Sum()
			if addBias {
				s += bias
			}
			dst[base+p] = s
		}
	}
}

// LayerSumsLanes is the nn.LaneSummer kernel: lanes run in pairs
// through the fused two-input sweep (one kernel load serves both) and an
// odd last lane through LayerSums, every lane bit-identical to
// LayerSums.
func (n *Net) LayerSumsLanes(l int, dsts, ys [][]float64) {
	k := 0
	for ; k+2 <= len(ys); k += 2 {
		n.layerSums2(l, dsts[k], ys[k], dsts[k+1], ys[k+1])
	}
	if k < len(ys) {
		n.LayerSums(l, dsts[k], ys[k], nil)
	}
}

// layerSums2 is the fused two-input sweep of LayerSumsLanes.
func (n *Net) layerSums2(l int, dst1, y1, dst2, y2 []float64) {
	lay := n.Layers[l-1]
	field := lay.Field()
	positions := len(y1) - field + 1
	addBias := n.anyBias()
	acc := tensor.NewConvAcc2(len(y1))
	for f := 0; f < lay.Filters(); f++ {
		kernel := lay.Kernels.Row(f)
		bias := 0.0
		if lay.Bias != nil {
			bias = lay.Bias[f]
		}
		base := f * positions
		for p := 0; p < positions; p++ {
			acc.Reset()
			acc.Add(kernel, y1, y2, p)
			s1, s2 := acc.Sums()
			if addBias {
				s1 += bias
				s2 += bias
			}
			dst1[base+p] = s1
			dst2[base+p] = s2
		}
	}
}

// Weight returns the virtual dense synapse weight into neuron `to` of
// layer l from neuron `from` of layer l-1: the shared kernel value when
// `from` falls inside `to`'s receptive field, 0 outside.
func (n *Net) Weight(l, to, from int) float64 {
	if l == len(n.Layers)+1 {
		return n.Output[from]
	}
	lay := n.Layers[l-1]
	positions := n.widthAt(l-1) - lay.Field() + 1
	f, p := to/positions, to%positions
	i := from - p
	if i < 0 || i >= lay.Field() {
		return 0
	}
	return lay.Kernels.At(f, i)
}

// OutputSum evaluates the linear output node. The lowered network's
// output bias is always zero; adding the literal 0.0 replays its
// arithmetic exactly.
func (n *Net) OutputSum(y []float64) float64 {
	return tensor.Dot(n.Output, y) + 0.0
}

// OutgoingWeight implements fault.OutgoingScorer: the largest |w| a
// neuron feeds forward through, read off the kernel structure in O(R)
// instead of scanning the virtual dense row. Neuron idx of layer l is
// column idx of the next layer's virtual rows: kernel value i of any
// filter reaches it from receiving position idx-i, valid while
// 0 <= idx-i < positions'.
func (n *Net) OutgoingWeight(l, idx int) float64 {
	if l == len(n.Layers) {
		return math.Abs(n.Output[idx])
	}
	lay := n.Layers[l] // synapses into layer l+1
	positions := n.widthAt(l) - lay.Field() + 1
	best := 0.0
	for f := 0; f < lay.Filters(); f++ {
		for i, w := range lay.Kernels.Row(f) {
			if recv := idx - i; recv < 0 || recv >= positions {
				continue
			}
			if a := math.Abs(w); a > best {
				best = a
			}
		}
	}
	return best
}

// OutgoingWeight implements fault.OutgoingScorer for the 2-D net:
// neuron idx of layer l sits at channel ch, row ir, column iw of the
// next layer's input volume; kernel value (kr, kc) of any filter
// reaches it from receiving position (ir-kr, iw-kc), valid while
// inside the output map.
func (n *Net2D) OutgoingWeight(l, idx int) float64 {
	if l == len(n.Layers) {
		return math.Abs(n.Output[idx])
	}
	lay := n.Layers[l] // synapses into layer l+1
	_, inH, inW := n.dimAt(l)
	field := lay.Field
	outH, outW := inH-field+1, inW-field+1
	ch := idx / (inH * inW)
	ir := (idx % (inH * inW)) / inW
	iw := idx % inW
	best := 0.0
	for _, kern := range lay.Kernels {
		krow := kern.Row(ch)
		for kr := 0; kr < field; kr++ {
			if r := ir - kr; r < 0 || r >= outH {
				continue
			}
			for kc := 0; kc < field; kc++ {
				if c := iw - kc; c < 0 || c >= outW {
					continue
				}
				if a := math.Abs(krow[kr*field+kc]); a > best {
					best = a
				}
			}
		}
	}
	return best
}

// ---- 2-D ----------------------------------------------------------------

// dimAt returns (channels, height, width) after layer l (0 = input).
func (n *Net2D) dimAt(l int) (c, h, w int) {
	c, h, w = 1, n.InputH, n.InputW
	for i := 0; i < l; i++ {
		c = n.Layers[i].Filters()
		h -= n.Layers[i].Field - 1
		w -= n.Layers[i].Field - 1
	}
	return c, h, w
}

// NumLayers returns L.
func (n *Net2D) NumLayers() int { return len(n.Layers) }

// Width returns the flattened volume of layer l (0 = input, L+1 = the
// output node).
func (n *Net2D) Width(l int) int {
	L := len(n.Layers)
	switch {
	case l >= 0 && l <= L:
		c, h, w := n.dimAt(l)
		return c * h * w
	case l == L+1:
		return 1
	}
	panic(fmt.Sprintf("conv: Width(%d) out of range for %d layers", l, L))
}

// MaxWeight returns w_m^{(l)} over the R(l) = InChannels·Field² distinct
// kernel values (l = L+1 selects the output synapses).
func (n *Net2D) MaxWeight(l int) float64 {
	if l == len(n.Layers)+1 {
		return tensor.MaxAbs(n.Output)
	}
	return n.Layers[l-1].MaxWeight()
}

// Activation returns ϕ.
func (n *Net2D) Activation() activation.Func { return n.Act }

func (n *Net2D) anyBias() bool {
	for _, l := range n.Layers {
		if l.Bias != nil {
			return true
		}
	}
	return false
}

// LayerSums computes the pre-activation sums of layer l natively: each
// output position accumulates its InChannels·Field window rows as
// ascending segments of the virtual dense row.
func (n *Net2D) LayerSums(l int, dst, y []float64, _ []int) {
	inC, inH, inW := n.dimAt(l - 1)
	lay := n.Layers[l-1]
	field := lay.Field
	outH, outW := inH-field+1, inW-field+1
	addBias := n.anyBias()
	acc := tensor.NewConvAcc(inC * inH * inW)
	for f := 0; f < lay.Filters(); f++ {
		kern := lay.Kernels[f]
		bias := 0.0
		if lay.Bias != nil {
			bias = lay.Bias[f]
		}
		base := f * outH * outW
		for r := 0; r < outH; r++ {
			for cx := 0; cx < outW; cx++ {
				acc.Reset()
				for c := 0; c < inC; c++ {
					krow := kern.Row(c)
					for kr := 0; kr < field; kr++ {
						acc.Add(krow[kr*field:(kr+1)*field], y, c*inH*inW+(r+kr)*inW+cx)
					}
				}
				s := acc.Sum()
				if addBias {
					s += bias
				}
				dst[base+r*outW+cx] = s
			}
		}
	}
}

// LayerSumsLanes is the nn.LaneSummer kernel (see Net.LayerSumsLanes).
func (n *Net2D) LayerSumsLanes(l int, dsts, ys [][]float64) {
	k := 0
	for ; k+2 <= len(ys); k += 2 {
		n.layerSums2(l, dsts[k], ys[k], dsts[k+1], ys[k+1])
	}
	if k < len(ys) {
		n.LayerSums(l, dsts[k], ys[k], nil)
	}
}

// layerSums2 is the fused two-input sweep of LayerSumsLanes.
func (n *Net2D) layerSums2(l int, dst1, y1, dst2, y2 []float64) {
	inC, inH, inW := n.dimAt(l - 1)
	lay := n.Layers[l-1]
	field := lay.Field
	outH, outW := inH-field+1, inW-field+1
	addBias := n.anyBias()
	acc := tensor.NewConvAcc2(inC * inH * inW)
	for f := 0; f < lay.Filters(); f++ {
		kern := lay.Kernels[f]
		bias := 0.0
		if lay.Bias != nil {
			bias = lay.Bias[f]
		}
		base := f * outH * outW
		for r := 0; r < outH; r++ {
			for cx := 0; cx < outW; cx++ {
				acc.Reset()
				for c := 0; c < inC; c++ {
					krow := kern.Row(c)
					for kr := 0; kr < field; kr++ {
						acc.Add(krow[kr*field:(kr+1)*field], y1, y2, c*inH*inW+(r+kr)*inW+cx)
					}
				}
				s1, s2 := acc.Sums()
				if addBias {
					s1 += bias
					s2 += bias
				}
				dst1[base+r*outW+cx] = s1
				dst2[base+r*outW+cx] = s2
			}
		}
	}
}

// Weight returns the virtual dense synapse weight into neuron `to` of
// layer l from neuron `from` of layer l-1.
func (n *Net2D) Weight(l, to, from int) float64 {
	if l == len(n.Layers)+1 {
		return n.Output[from]
	}
	inC, inH, inW := n.dimAt(l - 1)
	lay := n.Layers[l-1]
	field := lay.Field
	outH, outW := inH-field+1, inW-field+1
	f := to / (outH * outW)
	r := (to % (outH * outW)) / outW
	cx := to % outW
	c := from / (inH * inW)
	ir := (from % (inH * inW)) / inW
	iw := from % inW
	kr, kc := ir-r, iw-cx
	if c < 0 || c >= inC || kr < 0 || kr >= field || kc < 0 || kc >= field {
		return 0
	}
	return lay.Kernels[f].At(c, kr*field+kc)
}

// OutputSum evaluates the linear output node (see Net.OutputSum).
func (n *Net2D) OutputSum(y []float64) float64 {
	return tensor.Dot(n.Output, y) + 0.0
}

// ---- shared-weight (kernel) faults --------------------------------------

// KernelFault addresses one shared kernel value of a 1-D conv layer:
// Index runs over the Field positions of filter Filter in layer Layer.
// A fault on a shared value is a fault on EVERY synapse instance tied to
// it — the sparse plan representation expands it to the W tied
// per-position instances, which the native engine then injects without
// ever materialising the lowered matrix.
type KernelFault struct {
	Layer, Filter, Index int
}

// KernelSynapses appends the tied synapse instances of kf to dst. It
// panics on out-of-range coordinates (the plan-constructor convention):
// a silently mis-addressed shared weight would expand to synapses the
// kernel does not own and report a meaningless robustness result.
func (n *Net) KernelSynapses(kf KernelFault, dst []fault.SynapseFault) []fault.SynapseFault {
	if kf.Layer < 1 || kf.Layer > len(n.Layers) {
		panic(fmt.Sprintf("conv: kernel fault layer %d outside 1..%d", kf.Layer, len(n.Layers)))
	}
	lay := n.Layers[kf.Layer-1]
	if kf.Filter < 0 || kf.Filter >= lay.Filters() {
		panic(fmt.Sprintf("conv: kernel fault filter %d outside 0..%d", kf.Filter, lay.Filters()-1))
	}
	if kf.Index < 0 || kf.Index >= lay.Field() {
		panic(fmt.Sprintf("conv: kernel fault index %d outside 0..%d", kf.Index, lay.Field()-1))
	}
	positions := n.widthAt(kf.Layer-1) - lay.Field() + 1
	for p := 0; p < positions; p++ {
		dst = append(dst, fault.SynapseFault{
			Layer: kf.Layer,
			To:    kf.Filter*positions + p,
			From:  p + kf.Index,
		})
	}
	return dst
}

// KernelPlan expands shared kernel-value faults into a fault.Plan over
// the tied synapse instances.
func (n *Net) KernelPlan(kfs ...KernelFault) fault.Plan {
	var p fault.Plan
	for _, kf := range kfs {
		p.Synapses = n.KernelSynapses(kf, p.Synapses)
	}
	return p
}

// kernelCand scores one shared kernel value for the adversary: its
// magnitude and the expansion of its tied synapse instances.
type kernelCand struct {
	w      float64
	expand func(dst []fault.SynapseFault) []fault.SynapseFault
}

// takeTopKernels expands the k largest-magnitude candidates into p —
// the shared tail of both AdversarialKernelPlan variants.
func takeTopKernels(p *fault.Plan, all []kernelCand, k int) {
	sort.Slice(all, func(a, b int) bool { return all[a].w > all[b].w })
	if k > len(all) {
		panic("conv: more kernel faults than kernel values in layer")
	}
	for _, c := range all[:k] {
		p.Synapses = c.expand(p.Synapses)
	}
}

// AdversarialKernelPlan fails, in each layer, the perLayer[l-1]
// largest-magnitude shared kernel values — the heaviest-weights
// adversary of the tightness arguments lifted to the shared-weight
// setting, where one fault simultaneously hits every tied synapse
// instance.
func (n *Net) AdversarialKernelPlan(perLayer []int) fault.Plan {
	if len(perLayer) != len(n.Layers) {
		panic("conv: perLayer length must equal the number of layers")
	}
	var p fault.Plan
	for l := 1; l <= len(n.Layers); l++ {
		lay := n.Layers[l-1]
		var all []kernelCand
		for f := 0; f < lay.Filters(); f++ {
			for i := 0; i < lay.Field(); i++ {
				kf := KernelFault{Layer: l, Filter: f, Index: i}
				all = append(all, kernelCand{
					w:      math.Abs(lay.Kernels.At(f, i)),
					expand: func(dst []fault.SynapseFault) []fault.SynapseFault { return n.KernelSynapses(kf, dst) },
				})
			}
		}
		takeTopKernels(&p, all, perLayer[l-1])
	}
	return p
}

// KernelFault2D addresses one shared kernel value of a 2-D conv layer:
// channel Channel, window row Row and column Col of filter Filter.
type KernelFault2D struct {
	Layer, Filter, Channel, Row, Col int
}

// KernelSynapses appends the tied synapse instances of kf to dst,
// panicking on out-of-range coordinates (see Net.KernelSynapses).
func (n *Net2D) KernelSynapses(kf KernelFault2D, dst []fault.SynapseFault) []fault.SynapseFault {
	if kf.Layer < 1 || kf.Layer > len(n.Layers) {
		panic(fmt.Sprintf("conv: kernel fault layer %d outside 1..%d", kf.Layer, len(n.Layers)))
	}
	lay := n.Layers[kf.Layer-1]
	inC, inH, inW := n.dimAt(kf.Layer - 1)
	field := lay.Field
	if kf.Filter < 0 || kf.Filter >= lay.Filters() {
		panic(fmt.Sprintf("conv: kernel fault filter %d outside 0..%d", kf.Filter, lay.Filters()-1))
	}
	if kf.Channel < 0 || kf.Channel >= inC {
		panic(fmt.Sprintf("conv: kernel fault channel %d outside 0..%d", kf.Channel, inC-1))
	}
	if kf.Row < 0 || kf.Row >= field || kf.Col < 0 || kf.Col >= field {
		panic(fmt.Sprintf("conv: kernel fault window (%d,%d) outside %dx%d", kf.Row, kf.Col, field, field))
	}
	outH, outW := inH-field+1, inW-field+1
	for r := 0; r < outH; r++ {
		for cx := 0; cx < outW; cx++ {
			dst = append(dst, fault.SynapseFault{
				Layer: kf.Layer,
				To:    kf.Filter*outH*outW + r*outW + cx,
				From:  kf.Channel*inH*inW + (r+kf.Row)*inW + (cx + kf.Col),
			})
		}
	}
	return dst
}

// KernelPlan expands shared kernel-value faults into a fault.Plan over
// the tied synapse instances.
func (n *Net2D) KernelPlan(kfs ...KernelFault2D) fault.Plan {
	var p fault.Plan
	for _, kf := range kfs {
		p.Synapses = n.KernelSynapses(kf, p.Synapses)
	}
	return p
}

// AdversarialKernelPlan fails the perLayer[l-1] largest-magnitude
// shared kernel values of each layer (see Net.AdversarialKernelPlan).
func (n *Net2D) AdversarialKernelPlan(perLayer []int) fault.Plan {
	if len(perLayer) != len(n.Layers) {
		panic("conv: perLayer length must equal the number of layers")
	}
	var p fault.Plan
	for l := 1; l <= len(n.Layers); l++ {
		lay := n.Layers[l-1]
		var all []kernelCand
		for f, k := range lay.Kernels {
			for c := 0; c < k.Rows; c++ {
				for kr := 0; kr < lay.Field; kr++ {
					for kc := 0; kc < lay.Field; kc++ {
						kf := KernelFault2D{Layer: l, Filter: f, Channel: c, Row: kr, Col: kc}
						all = append(all, kernelCand{
							w:      math.Abs(k.At(c, kr*lay.Field+kc)),
							expand: func(dst []fault.SynapseFault) []fault.SynapseFault { return n.KernelSynapses(kf, dst) },
						})
					}
				}
			}
		}
		takeTopKernels(&p, all, perLayer[l-1])
	}
	return p
}
