// Package fault implements failure injection for the paper's model
// (Section II-B): crashed neurons (stop sending; read as 0), Byzantine
// neurons (arbitrary values bounded by the synaptic capacity C,
// Assumption 1), and crashed/Byzantine synapses. It evaluates the damaged
// neural function Ffail, measures empirical output errors, and provides
// the exhaustive configuration search whose combinatorial explosion the
// paper contrasts with the O(L) Fep bound.
package fault

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
)

// NeuronFault identifies one failing neuron: layer is 1..L, index is the
// neuron's position within the layer.
type NeuronFault struct {
	Layer, Index int
}

// SynapseFault identifies one failing synapse into layer (1..L+1, where
// L+1 addresses the output node's incoming synapses). To is the receiving
// neuron within the layer. For layered models From is the sending neuron
// in layer-1; for DAG models (nn.DAGModel) From is the receiving
// neuron's in-edge ORDINAL — the k-th edge in ascending (srcLevel,
// srcIdx) order, 0 <= From < FanIn(Layer, To) — so a fault can address
// a skip edge (nn.AsDAG's view resolves either form uniformly).
type SynapseFault struct {
	Layer, To, From int
}

// Plan is a set of neuron and synapse failures applied together.
type Plan struct {
	Neurons  []NeuronFault
	Synapses []SynapseFault
}

// PerLayerNeurons returns the fault distribution (f_1..f_L) of the plan's
// neuron failures for a network with L layers.
func (p Plan) PerLayerNeurons(L int) []int {
	out := make([]int, L)
	for _, f := range p.Neurons {
		if f.Layer < 1 || f.Layer > L {
			panic(fmt.Sprintf("fault: neuron fault at layer %d outside 1..%d", f.Layer, L))
		}
		out[f.Layer-1]++
	}
	return out
}

// PerLayerSynapses returns the synapse fault distribution (f_1..f_{L+1}).
func (p Plan) PerLayerSynapses(L int) []int {
	out := make([]int, L+1)
	for _, f := range p.Synapses {
		if f.Layer < 1 || f.Layer > L+1 {
			panic(fmt.Sprintf("fault: synapse fault at layer %d outside 1..%d", f.Layer, L+1))
		}
		out[f.Layer-1]++
	}
	return out
}

// Validate checks a plan against a model (dense, convolutional or
// graph): indices in range, no neuron failed twice. For conv models the
// indices address flattened feature-map positions and virtual dense
// synapses (see CompiledPlan); for DAG models synapse senders are
// in-edge ordinals validated against the receiving node's fan-in.
func (p Plan) Validate(n nn.Model) error {
	L := n.NumLayers()
	seen := map[NeuronFault]bool{}
	for _, f := range p.Neurons {
		if f.Layer < 1 || f.Layer > L {
			return fmt.Errorf("fault: neuron layer %d out of range", f.Layer)
		}
		if f.Index < 0 || f.Index >= n.Width(f.Layer) {
			return fmt.Errorf("fault: neuron index %d out of range for layer %d", f.Index, f.Layer)
		}
		if seen[f] {
			return fmt.Errorf("fault: neuron (%d,%d) failed twice", f.Layer, f.Index)
		}
		seen[f] = true
	}
	if len(p.Synapses) == 0 {
		return nil
	}
	dag := nn.AsDAG(n)
	seenSyn := map[SynapseFault]bool{}
	for _, f := range p.Synapses {
		if f.Layer < 1 || f.Layer > L+1 {
			return fmt.Errorf("fault: synapse layer %d out of range", f.Layer)
		}
		if f.To < 0 || f.To >= n.Width(f.Layer) {
			return fmt.Errorf("fault: synapse receiver %d out of range for layer %d", f.To, f.Layer)
		}
		if f.From < 0 || f.From >= dag.FanIn(f.Layer, f.To) {
			return fmt.Errorf("fault: synapse sender %d out of range for layer %d", f.From, f.Layer)
		}
		if seenSyn[f] {
			return fmt.Errorf("fault: synapse (%d,%d<-%d) failed twice", f.Layer, f.To, f.From)
		}
		seenSyn[f] = true
	}
	return nil
}

// Injector decides the values emitted by failing components.
//
// For NEURON faults the nominal argument is the clean (fault-free) output:
// Theorem 2's model has a Byzantine neuron broadcast "y + λ instead of the
// nominal y", where y is the unfaulted value — deviations compound against
// the clean computation, so Forward runs the clean trace alongside the
// damaged one. For SYNAPSE faults the nominal argument is the channel's
// actually transmitted contribution (weight times the possibly-corrupted
// upstream output): a crashed channel physically removes whatever was on
// it, and a Byzantine channel adds a bounded λ to the receiving sum.
type Injector interface {
	// NeuronValue returns the value a faulty neuron broadcasts in place
	// of its clean nominal output.
	NeuronValue(f NeuronFault, nominal float64) float64
	// SynapseDelta returns the additive error on the receiving sum for a
	// faulty synapse whose current transmitted contribution (w·y) is
	// given.
	SynapseDelta(f SynapseFault, nominal float64) float64
}

// Crash models crash failures: neurons stop sending (read as 0 per
// Definition 2) and synapses stop transmitting (contribution becomes 0).
type Crash struct{}

func (Crash) NeuronValue(NeuronFault, float64) float64 { return 0 }
func (Crash) SynapseDelta(_ SynapseFault, nominal float64) float64 {
	return -nominal
}

// Byzantine models Byzantine failures under a synaptic capacity C with
// selectable semantics (see core.CapSemantics) and a per-fault sign map.
// A fault's deviation is Sign(f)·C; the default sign is +1.
type Byzantine struct {
	C    float64
	Sem  core.CapSemantics
	Sign map[NeuronFault]float64
	// SynSign optionally orients synapse faults; default +1.
	SynSign map[SynapseFault]float64
}

func (b Byzantine) sign(f NeuronFault) float64 {
	if s, ok := b.Sign[f]; ok {
		return s
	}
	return 1
}

func (b Byzantine) NeuronValue(f NeuronFault, nominal float64) float64 {
	switch b.Sem {
	case core.TransmissionCap:
		// Emit the extreme value of the allowed range [-C, C].
		return b.sign(f) * b.C
	default:
		// DeviationCap: shift nominal by ±C.
		return nominal + b.sign(f)*b.C
	}
}

func (b Byzantine) SynapseDelta(f SynapseFault, nominal float64) float64 {
	s := 1.0
	if v, ok := b.SynSign[f]; ok {
		s = v
	}
	switch b.Sem {
	case core.TransmissionCap:
		// Transmitted value clamps to ±C: delta = target - nominal.
		return s*b.C - nominal
	default:
		return s * b.C
	}
}

// Mixed dispatches per fault: neurons in CrashSet crash (emit 0), all
// other faulty neurons and all faulty synapses behave as Byz prescribes.
// It realises the mixed distributions bounded by core.MixedFep.
type Mixed struct {
	CrashSet map[NeuronFault]bool
	Byz      Byzantine
}

func (m Mixed) NeuronValue(f NeuronFault, nominal float64) float64 {
	if m.CrashSet[f] {
		return 0
	}
	return m.Byz.NeuronValue(f, nominal)
}

func (m Mixed) SynapseDelta(f SynapseFault, transmitted float64) float64 {
	return m.Byz.SynapseDelta(f, transmitted)
}

// RandomByzantine emits uniformly random values within the capacity:
// deviations in [-C, C] under DeviationCap, values in [-C, C] under
// TransmissionCap. Each evaluation draws fresh values from R.
type RandomByzantine struct {
	C   float64
	Sem core.CapSemantics
	R   *rng.Rand
}

func (b RandomByzantine) NeuronValue(_ NeuronFault, nominal float64) float64 {
	v := b.R.Range(-b.C, b.C)
	if b.Sem == core.TransmissionCap {
		return v
	}
	return nominal + v
}

func (b RandomByzantine) SynapseDelta(_ SynapseFault, nominal float64) float64 {
	v := b.R.Range(-b.C, b.C)
	if b.Sem == core.TransmissionCap {
		return v - nominal
	}
	return v
}

// Forward evaluates the damaged neural function Ffail on x: faulty
// neurons' outputs are replaced via the injector after each layer, and
// faulty synapses perturb the receiving sums. Injectors receive clean
// nominal values (see Injector), so Forward also runs the fault-free
// sweep as deep as the injector needs it. For repeated evaluation of one
// plan, Compile once and reuse the CompiledPlan.
func Forward(n nn.Model, p Plan, inj Injector, x []float64) float64 {
	return Compile(n, p).Forward(inj, x)
}

// ErrorOn returns |Fneu(x) - Ffail(x)| for one input. For repeated
// evaluation, Compile the plan once and use CompiledPlan.ErrorOn (or
// ErrorOnTrace over a fixed input set).
func ErrorOn(n nn.Model, p Plan, inj Injector, x []float64) float64 {
	return Compile(n, p).ErrorOn(inj, x)
}
