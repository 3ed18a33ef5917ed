package fault

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Params configures one instantiation of a registered fault model. Each
// model reads the fields it needs and ignores the rest; New documents
// which fields are required. The zero value selects sensible defaults
// everywhere a default exists.
type Params struct {
	// C is the capacity / deviation amplitude used by Byzantine-style
	// and noise models (Assumption 1's synaptic capacity).
	C float64
	// Sem selects the capacity semantics for Byzantine-style models
	// (see core.CapSemantics).
	Sem core.CapSemantics
	// Value is the output a stuck-at neuron emits.
	Value float64
	// Prob is the per-evaluation failure probability of intermittent
	// models, in [0, 1].
	Prob float64
	// Bits is the sign-magnitude fixed-point width (sign bit included)
	// the bit-flip model encodes values in. 0 selects 8.
	Bits int
	// Bit is the 0-based index of the flipped bit; Bits-1 is the sign
	// bit, lower indices are magnitude bits (0 = least significant).
	Bit int
	// Net is the model whose weights the bit-flip model corrupts
	// (required by models that inspect parameters, ignored elsewhere).
	// Any nn.Model — dense or convolutional — is accepted.
	Net nn.Model
	// R supplies randomness to stochastic models. Stochastic injectors
	// hold this stream through compile-time state and draw from it on
	// every evaluation without allocating; they are NOT safe for
	// concurrent use (give each goroutine its own stream via R.Split).
	R *rng.Rand
}

// DefaultParams holds the parameter defaults every front end applies
// to a field a query leaves unset: the CLI's flag defaults and the
// service's request defaults both read it, so one question gets one
// answer from either.
var DefaultParams = Params{C: 1, Sem: core.DeviationCap, Value: 0.8, Prob: 0.5, Bits: 8, Bit: 7}

// DefaultSeed seeds random plans and stochastic injectors when a query
// names no seed.
const DefaultSeed uint64 = 7

// DefaultModel is the fault model a query that names none injects.
const DefaultModel = "crash"

// DefaultTrials and DefaultTrialSeed size and seed a Monte Carlo
// profile whose query leaves them unset.
const (
	DefaultTrials           = 500
	DefaultTrialSeed uint64 = 9
)

// MaxWorstCaseConfigs bounds one exhaustive worst-case sweep. The tree
// engine prunes, but the worst case is still a full enumeration: the
// service refuses larger sweeps on every path (split the fault
// distribution instead), and the CLI's -max defaults to it.
const MaxWorstCaseConfigs int64 = 2_000_000

// Seeded returns p bound to the model net, with stochastic injectors
// drawing from the stream seed derives for them — a different stream
// from rng.New(seed), which a random plan for the same query draws
// from.
func (p Params) Seeded(net nn.Model, seed uint64) Params {
	p.Net = net
	p.R = rng.New(seed ^ 0xfa0175)
	return p
}

// Model is one named entry of the fault-model registry: a factory for
// Injectors together with the worst-case deviation caps that plug the
// model into the paper's analysis. Theorems 2-4 are parameterised only
// by a per-component deviation cap c, so ANY fault model is covered by
// the same Fep machinery once its caps are known: NeuronDeviation bounds
// |faulty output - nominal| for a faulty neuron and feeds core.Fep /
// core.DeviationFep; SynapseDeviation bounds the additive error a faulty
// synapse lands on its receiving sum and feeds core.SynapseFep.
type Model struct {
	// Name is the registry key (lower-case, stable; CLI-visible).
	Name string
	// Description is a one-line human-readable summary.
	Description string
	// Deterministic reports whether the injector's values depend only
	// on the fault and the nominal value. Deterministic injectors are
	// safe for concurrent use and evaluate with zero steady-state
	// allocations on compiled plans; stochastic ones require Params.R
	// and sequential evaluation (fault.MaxErrorSeq, which measures
	// through CompiledPlan.MaxErrorOnTraces in input order).
	Deterministic bool
	// New builds an injector for the given parameters.
	New func(Params) (Injector, error)
	// NeuronDeviation returns the worst-case per-neuron output
	// deviation cap for the parameters on a network of the given shape.
	NeuronDeviation func(Params, core.Shape) float64
	// SynapseDeviation returns the worst-case additive error a single
	// faulty synapse contributes to its receiving sum.
	SynapseDeviation func(Params, core.Shape) float64
}

var (
	regMu    sync.RWMutex
	registry = map[string]Model{}
)

// Register adds a model to the registry. It panics on an empty name, a
// duplicate name, or a model missing any of its functions — registration
// happens at init time, where a panic is a programming error caught by
// the first test run.
func Register(m Model) {
	if m.Name == "" {
		panic("fault: Register with empty model name")
	}
	if m.New == nil || m.NeuronDeviation == nil || m.SynapseDeviation == nil {
		panic(fmt.Sprintf("fault: model %q missing factory or deviation functions", m.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[m.Name]; dup {
		panic(fmt.Sprintf("fault: model %q registered twice", m.Name))
	}
	registry[m.Name] = m
}

// Lookup returns the named model.
func Lookup(name string) (Model, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := registry[name]
	return m, ok
}

// Models returns every registered model, sorted by name.
func Models() []Model {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Model, 0, len(registry))
	for _, m := range registry {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ModelNames returns the sorted registry keys.
func ModelNames() []string {
	models := Models()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return names
}

// NewInjector instantiates the named model, erroring with the list of
// valid names when the model does not exist.
func NewInjector(name string, p Params) (Injector, error) {
	m, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("fault: unknown model %q (registered: %v)", name, ModelNames())
	}
	return m.New(p)
}
