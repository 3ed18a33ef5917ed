// Package nn implements the paper's neural computation model
// (Section II-A, Equations 1-3): a feed-forward multilayer network whose
// hidden layers apply a squashing function ϕ and whose output node is a
// plain weighted sum (the output node is a client, not part of the
// network — but its incoming synapses are, and their maximal weight
// w_m^{(L+1)} enters every bound).
//
// Layer indexing follows the paper: inputs form layer 0, hidden layers are
// 1..L, and the output node is treated as layer L+1 with a single correct
// neuron. Biases use the paper's convention of a constant neuron per
// layer: the bias of neuron j in layer l is the weight it gives to the
// constant neuron of layer l-1, so biases participate in w_m^{(l)}.
package nn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/activation"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Network is a feed-forward ϕ-network with a linear output node.
type Network struct {
	// InputDim is d, the dimension of the input vector X.
	InputDim int
	// Act is the activation function ϕ shared by all hidden neurons.
	Act activation.Func
	// Hidden[l-1] holds W^{(l)}, the N_l x N_{l-1} weight matrix into
	// hidden layer l (row j, column i = w^{(l)}_{ji}).
	Hidden []*tensor.Matrix
	// Biases[l-1], if non-nil, holds the per-neuron biases of layer l
	// (weights to the constant neuron of the previous layer).
	Biases [][]float64
	// Output holds w^{(L+1)}, the weights from the last hidden layer to
	// the output node.
	Output []float64
	// OutputBias is the bias of the linear output node.
	OutputBias float64
}

// Layers returns L, the number of hidden layers.
func (n *Network) Layers() int { return len(n.Hidden) }

// Width returns N_l, the number of neurons in layer l (1 <= l <= L); l = 0
// returns the input dimension and l = L+1 returns 1 (the output node).
func (n *Network) Width(l int) int {
	switch {
	case l == 0:
		return n.InputDim
	case l >= 1 && l <= n.Layers():
		return n.Hidden[l-1].Rows
	case l == n.Layers()+1:
		return 1
	}
	panic(fmt.Sprintf("nn: Width(%d) out of range for %d layers", l, n.Layers()))
}

// Widths returns (N_1, ..., N_L).
func (n *Network) Widths() []int {
	w := make([]int, n.Layers())
	for l := 1; l <= n.Layers(); l++ {
		w[l-1] = n.Width(l)
	}
	return w
}

// Neurons returns the total number of hidden neurons.
func (n *Network) Neurons() int {
	total := 0
	for _, m := range n.Hidden {
		total += m.Rows
	}
	return total
}

// Parameters returns the total number of weights (including biases).
func (n *Network) Parameters() int {
	total := len(n.Output) + 1
	for l, m := range n.Hidden {
		total += len(m.Data)
		if n.Biases != nil && n.Biases[l] != nil {
			total += len(n.Biases[l])
		}
	}
	return total
}

// Validate checks internal consistency and returns a descriptive error for
// malformed networks.
func (n *Network) Validate() error {
	if n.InputDim <= 0 {
		return fmt.Errorf("nn: input dimension %d", n.InputDim)
	}
	if n.Act == nil {
		return fmt.Errorf("nn: nil activation")
	}
	if len(n.Hidden) == 0 {
		return fmt.Errorf("nn: no hidden layers")
	}
	prev := n.InputDim
	for l, m := range n.Hidden {
		if m.Cols != prev {
			return fmt.Errorf("nn: layer %d expects %d inputs, previous layer has %d", l+1, m.Cols, prev)
		}
		if m.Rows == 0 {
			return fmt.Errorf("nn: layer %d has zero neurons", l+1)
		}
		if n.Biases != nil {
			if len(n.Biases) != len(n.Hidden) {
				return fmt.Errorf("nn: %d bias vectors for %d layers", len(n.Biases), len(n.Hidden))
			}
			if b := n.Biases[l]; b != nil && len(b) != m.Rows {
				return fmt.Errorf("nn: layer %d bias length %d, want %d", l+1, len(b), m.Rows)
			}
		}
		prev = m.Rows
	}
	if len(n.Output) != prev {
		return fmt.Errorf("nn: output weights length %d, want %d", len(n.Output), prev)
	}
	return nil
}

// MaxWeight returns w_m^{(l)}: the maximum absolute weight of the synapses
// into layer l, for 1 <= l <= L+1 (L+1 selects the output synapses).
// Biases are excluded per the Model contract (see nn.Model): they are
// weights to constant neurons, which never fail, so they carry no
// deviation and excluding them keeps the bound sound and tighter.
func (n *Network) MaxWeight(l int) float64 {
	L := n.Layers()
	if l < 1 || l > L+1 {
		panic(fmt.Sprintf("nn: MaxWeight(%d) out of range 1..%d", l, L+1))
	}
	if l == L+1 {
		return tensor.MaxAbs(n.Output)
	}
	return n.Hidden[l-1].MaxAbs()
}

// MaxWeights returns (w_m^{(1)}, ..., w_m^{(L+1)}).
func (n *Network) MaxWeights() []float64 {
	out := make([]float64, n.Layers()+1)
	for l := 1; l <= n.Layers()+1; l++ {
		out[l-1] = n.MaxWeight(l)
	}
	return out
}

// Trace captures every intermediate quantity of one forward pass: the
// received sums s^{(l)} (Equation 3) and the emitted outputs y^{(l)}
// (Equation 2) for each layer, plus the final output (Equation 1). Fault
// injection and backpropagation both consume traces.
type Trace struct {
	// Input is y^{(0)} = X.
	Input []float64
	// Sums[l-1] holds s^{(l)}.
	Sums [][]float64
	// Outputs[l-1] holds y^{(l)}.
	Outputs [][]float64
	// Output is Fneu(X).
	Output float64
}

// Forward evaluates Fneu(X) (Equation 1) with ForwardModel on pooled
// scratch: the steady state allocates nothing.
func (n *Network) Forward(x []float64) float64 {
	sc := GetScratch(n)
	f := ForwardModel(n, sc, x)
	PutScratch(sc)
	return f
}

// ForwardTrace evaluates the network and records all intermediate sums
// and outputs (TraceModel). The trace owns its buffers.
func (n *Network) ForwardTrace(x []float64) *Trace { return TraceModel(n, x) }

// ForwardBatch evaluates the network on many inputs in parallel
// (ForwardBatchModel).
func (n *Network) ForwardBatch(xs [][]float64) []float64 { return ForwardBatchModel(n, xs) }

// Clone returns a deep copy sharing no mutable state with n.
func (n *Network) Clone() *Network {
	out := &Network{
		InputDim:   n.InputDim,
		Act:        n.Act,
		Hidden:     make([]*tensor.Matrix, len(n.Hidden)),
		Output:     tensor.Clone(n.Output),
		OutputBias: n.OutputBias,
	}
	for i, m := range n.Hidden {
		out.Hidden[i] = m.Clone()
	}
	if n.Biases != nil {
		out.Biases = make([][]float64, len(n.Biases))
		for i, b := range n.Biases {
			if b != nil {
				out.Biases[i] = tensor.Clone(b)
			}
		}
	}
	return out
}

// Config describes a network to construct.
type Config struct {
	// InputDim is the input dimension d.
	InputDim int
	// Widths lists N_1..N_L.
	Widths []int
	// Act is the shared activation.
	Act activation.Func
	// Bias enables per-neuron biases.
	Bias bool
}

// NewRandom builds a network from cfg with all weights uniform in
// [-scale, scale).
func NewRandom(r *rng.Rand, cfg Config, scale float64) *Network {
	n := newShell(cfg)
	prev := cfg.InputDim
	for l, w := range cfg.Widths {
		n.Hidden[l] = tensor.RandomMatrix(r, w, prev, scale)
		if cfg.Bias {
			n.Biases[l] = make([]float64, w)
			r.Floats(n.Biases[l], -scale, scale)
		}
		prev = w
	}
	n.Output = make([]float64, prev)
	r.Floats(n.Output, -scale, scale)
	if cfg.Bias {
		n.OutputBias = r.Range(-scale, scale)
	}
	return n
}

// NewGlorot builds a network from cfg with Glorot/Xavier initialisation,
// the standard starting point for sigmoid training.
func NewGlorot(r *rng.Rand, cfg Config) *Network {
	n := newShell(cfg)
	prev := cfg.InputDim
	for l, w := range cfg.Widths {
		n.Hidden[l] = tensor.GlorotMatrix(r, w, prev)
		if cfg.Bias {
			n.Biases[l] = make([]float64, w) // zero biases
		}
		prev = w
	}
	n.Output = make([]float64, prev)
	bound := math.Sqrt(6.0 / float64(prev+1))
	r.Floats(n.Output, -bound, bound)
	return n
}

func newShell(cfg Config) *Network {
	if len(cfg.Widths) == 0 {
		panic("nn: config has no layers")
	}
	if cfg.InputDim <= 0 {
		panic("nn: config has non-positive input dimension")
	}
	n := &Network{
		InputDim: cfg.InputDim,
		Act:      cfg.Act,
		Hidden:   make([]*tensor.Matrix, len(cfg.Widths)),
	}
	if cfg.Bias {
		n.Biases = make([][]float64, len(cfg.Widths))
	}
	return n
}

// StrictUnmarshal decodes JSON rejecting unknown fields and trailing
// garbage — the shared strict codec helper behind every model document
// (nn.Network, the conv nets, and the service's request bodies).
func StrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// jsonNetwork is the serialised form.
type jsonNetwork struct {
	InputDim   int           `json:"input_dim"`
	Activation string        `json:"activation"`
	Hidden     [][][]float64 `json:"hidden"`
	Biases     [][]float64   `json:"biases,omitempty"`
	Output     []float64     `json:"output"`
	OutputBias float64       `json:"output_bias"`
}

// MarshalJSON serialises the network including the activation by name.
func (n *Network) MarshalJSON() ([]byte, error) {
	j := jsonNetwork{
		InputDim:   n.InputDim,
		Activation: n.Act.Name(),
		Hidden:     make([][][]float64, len(n.Hidden)),
		Biases:     n.Biases,
		Output:     n.Output,
		OutputBias: n.OutputBias,
	}
	for l, m := range n.Hidden {
		rows := make([][]float64, m.Rows)
		for r := 0; r < m.Rows; r++ {
			rows[r] = m.Row(r)
		}
		j.Hidden[l] = rows
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a network serialised by MarshalJSON. Unknown
// fields are errors: every network document is produced by MarshalJSON,
// so an unrecognised key is a typo (e.g. "output_bais") that would
// otherwise silently zero the intended parameter.
func (n *Network) UnmarshalJSON(data []byte) error {
	var j jsonNetwork
	if err := StrictUnmarshal(data, &j); err != nil {
		return err
	}
	act, err := activation.FromName(j.Activation)
	if err != nil {
		return err
	}
	n.InputDim = j.InputDim
	n.Act = act
	n.Hidden = make([]*tensor.Matrix, len(j.Hidden))
	for l, rows := range j.Hidden {
		// FromRows panics on ragged input; this is the trust boundary
		// for uploaded documents, so reject it as a decode error.
		for _, row := range rows {
			if len(row) != len(rows[0]) {
				return fmt.Errorf("nn: layer %d has ragged weight rows", l+1)
			}
		}
		n.Hidden[l] = tensor.FromRows(rows)
	}
	n.Biases = j.Biases
	n.Output = j.Output
	n.OutputBias = j.OutputBias
	return n.Validate()
}
