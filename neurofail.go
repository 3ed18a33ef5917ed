// Package neurofail is a Go implementation of "When Neurons Fail"
// (El Mhamdi & Guerraoui, IPDPS 2017): tight bounds on how many neuron
// and synapse failures a feed-forward neural network tolerates without
// retraining, derived from the Forward Error Propagation quantity (Fep).
//
// The package is a curated facade over the implementation packages:
//
//   - internal/core — Fep and the bounds of Theorems 1-5 (the paper's
//     contribution);
//   - internal/nn, internal/activation — the neural computation model;
//   - internal/fault — crash/Byzantine neuron and synapse injection,
//     adversarial plans, exhaustive worst-case search;
//   - internal/train, internal/approx — backprop training of
//     ε'-approximations, including Fep-regularised learning;
//   - internal/quant — fixed-point implementations with Theorem 5
//     certificates;
//   - internal/dist, internal/des — the network as a distributed system:
//     goroutine processes, faulty channels, and the boosting scheme of
//     Corollary 2 in virtual time;
//   - internal/experiments — regeneration of every figure and claim in
//     the paper's evaluation;
//   - internal/store — content-addressed persistence for networks,
//     quantised models and experiment outcomes;
//   - internal/serve — the long-running robustness-query HTTP service
//     over the store and the evaluation engine.
//
// Quickstart:
//
//	net, _, epsPrime := neurofail.Fit(neurofail.Sine1D(1), []int{16},
//	    neurofail.NewSigmoid(1), neurofail.TrainConfig{Epochs: 400})
//	shape := neurofail.ShapeOf(net)
//	faults := []int{2}                       // two faulty neurons in layer 1
//	bound := neurofail.CrashFep(shape, faults)
//	ok := neurofail.CrashTolerates(shape, faults, epsPrime+bound*1.01, epsPrime)
package neurofail

import (
	"context"

	"repro/internal/activation"
	"repro/internal/approx"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/train"
)

// Re-exported model types.
type (
	// Model is the unified computation-model abstraction every engine
	// layer consumes: dense nn.Network, 1-D and 2-D convolutional nets
	// all implement it, so fault injection, bounds, the store and the
	// service treat them uniformly — conv models at native engine speed
	// with Section VI receptive-field bounds, no dense lowering on any
	// hot path.
	Model = nn.Model
	// Network is the paper's feed-forward computation model.
	Network = nn.Network
	// ConvNet is the 1-D convolutional network of Section VI.
	ConvNet = conv.Net
	// ConvNet2D is the 2-D convolutional network (channel-major maps).
	ConvNet2D = conv.Net2D
	// ConvTrainConfig controls conv SGD (Train/Train2D).
	ConvTrainConfig = conv.TrainConfig
	// KernelFault addresses one shared kernel value of a 1-D conv layer.
	KernelFault = conv.KernelFault
	// KernelFault2D addresses one shared kernel value of a 2-D conv layer.
	KernelFault2D = conv.KernelFault2D
	// GraphNet is the arbitrary-topology sparse-DAG model: CSR levels,
	// per-edge weights, skip connections across any earlier level,
	// evaluated natively by the same engine tiers as the dense and conv
	// models.
	GraphNet = graph.Net
	// GraphLevel is one CSR level of a GraphNet.
	GraphLevel = graph.Level
	// NetworkConfig describes a network to construct.
	NetworkConfig = nn.Config
	// Activation is a squashing function with a known Lipschitz constant.
	Activation = activation.Func
	// Shape carries the topology parameters the bounds depend on.
	Shape = core.Shape
	// CapSemantics selects how the synaptic capacity bounds Byzantine values.
	CapSemantics = core.CapSemantics
	// Plan is a set of neuron and synapse failures.
	Plan = fault.Plan
	// NeuronFault identifies one failing neuron.
	NeuronFault = fault.NeuronFault
	// SynapseFault identifies one failing synapse.
	SynapseFault = fault.SynapseFault
	// Target is a continuous function from [0,1]^d to [0,1].
	Target = approx.Target
	// TrainConfig controls SGD training.
	TrainConfig = train.Config
	// Rand is the deterministic splittable RNG used throughout.
	Rand = rng.Rand
)

// Capacity semantics constants (see DESIGN.md).
const (
	// DeviationCap bounds |transmitted - nominal| <= C.
	DeviationCap = core.DeviationCap
	// TransmissionCap bounds |transmitted| <= C (Assumption 1 verbatim).
	TransmissionCap = core.TransmissionCap
)

// NewRand returns a deterministic random stream.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewSigmoid returns the K-Lipschitz tuned sigmoid of Figure 2.
func NewSigmoid(k float64) Activation { return activation.NewSigmoid(k) }

// NewTanh returns the K-Lipschitz tuned hyperbolic tangent.
func NewTanh(k float64) Activation { return activation.NewTanh(k) }

// NewRandomNetwork builds a network with uniform random weights.
func NewRandomNetwork(r *Rand, cfg NetworkConfig, scale float64) *Network {
	return nn.NewRandom(r, cfg, scale)
}

// ShapeOf extracts the Shape the bounds operate on.
func ShapeOf(n *Network) Shape { return core.ShapeOf(n) }

// ShapeOfModel extracts the Shape of any Model. Convolutional models
// yield w_m^{(l)} over their R(l) receptive-field values — Section VI's
// less restrictive bounds through the same Fep formulas.
func ShapeOfModel(m Model) Shape { return core.ShapeOfModel(m) }

// NewRandomConv builds a random 1-D conv net: fields[i] and filters[i]
// configure layer i; weights are uniform in [-scale, scale).
func NewRandomConv(r *Rand, inputWidth int, fields, filters []int, act Activation, scale float64, bias bool) (*ConvNet, error) {
	return conv.NewRandom(r, inputWidth, fields, filters, act, scale, bias)
}

// NewRandomConv2D builds a random 2-D conv net over an h x w input.
func NewRandomConv2D(r *Rand, h, w int, fields, filters []int, act Activation, scale float64, bias bool) (*ConvNet2D, error) {
	return conv.NewRandom2D(r, h, w, fields, filters, act, scale, bias)
}

// LowerConv materialises the dense network equivalent to a 1-D conv net
// — the test oracle; evaluation and bounds never need it.
func LowerConv(n *ConvNet) (*Network, error) { return conv.Lower(n) }

// LowerConv2D is the 2-D lowering oracle.
func LowerConv2D(n *ConvNet2D) (*Network, error) { return conv.Lower2D(n) }

// TrainConv runs minibatch SGD on a 1-D conv net with weight sharing
// preserved exactly, returning the final MSE.
func TrainConv(n *ConvNet, xs [][]float64, ys []float64, cfg ConvTrainConfig) float64 {
	return conv.Train(n, xs, ys, cfg)
}

// TrainConv2D is the 2-D counterpart of TrainConv.
func TrainConv2D(n *ConvNet2D, xs [][]float64, ys []float64, cfg ConvTrainConfig) float64 {
	return conv.Train2D(n, xs, ys, cfg)
}

// ParseModel decodes an architecture-tagged model document: untagged
// dense networks, "conv1d"/"conv2d" nets and "graph" sparse-DAG
// models.
func ParseModel(data []byte) (Model, error) { return conv.ParseModel(data) }

// ForwardModel evaluates any model on scratch buffers: zero steady-state
// allocations, bit-identical to the equivalent dense network.
func ForwardModel(m Model, sc *Scratch, x []float64) float64 { return nn.ForwardModel(m, sc, x) }

// Fep computes the Forward Error Propagation of Theorem 2: the worst-case
// output deviation when faults[l-1] neurons of layer l emit values within
// deviation c of their nominal outputs.
func Fep(s Shape, faults []int, c float64) float64 { return core.Fep(s, faults, c) }

// CrashFep is the crash case of Theorem 3 (c replaced by the activation's
// maximum).
func CrashFep(s Shape, faults []int) float64 { return core.CrashFep(s, faults) }

// SynapseFep bounds the effect of Byzantine synapses (Theorem 4 via the
// Lemma 2 reduction).
func SynapseFep(s Shape, faults []int, c float64) float64 {
	return core.SynapseFep(s, faults, c)
}

// PrecisionBound is Theorem 5: the output deviation under per-neuron
// implementation errors lambda[l-1] at every neuron of layer l.
func PrecisionBound(s Shape, lambda []float64) float64 {
	return core.PrecisionBound(s, lambda)
}

// Tolerates is Theorem 3's condition: the Byzantine distribution is
// masked by an ε'-approximation required to stay ε-accurate iff
// Fep <= ε-ε'.
func Tolerates(s Shape, faults []int, c, eps, epsPrime float64) bool {
	return core.Tolerates(s, faults, c, eps, epsPrime)
}

// CrashTolerates is the crash case of Theorem 3.
func CrashTolerates(s Shape, faults []int, eps, epsPrime float64) bool {
	return core.CrashTolerates(s, faults, eps, epsPrime)
}

// Theorem1MaxCrashes returns the single-layer crash tolerance
// floor((ε-ε')/wm) of Theorem 1.
func Theorem1MaxCrashes(eps, epsPrime, wm float64) int {
	return core.Theorem1MaxCrashes(eps, epsPrime, wm)
}

// RequiredSignals is Corollary 2: how many signals consumers of each
// layer must await under a tolerated crash distribution.
func RequiredSignals(s Shape, faults []int) []int {
	return core.RequiredSignals(s, faults)
}

// MaxUniformFaults returns the largest per-layer-uniform fault count
// whose Fep stays within budget.
func MaxUniformFaults(s Shape, c, budget float64) int {
	return core.MaxUniformFaults(s, c, budget)
}

// Crash is the crash-failure injector (Definition 2: values read as 0).
func Crash() fault.Injector { return fault.Crash{} }

// Byzantine returns an extreme-value Byzantine injector with capacity c
// under the given semantics.
func Byzantine(c float64, sem CapSemantics) fault.Injector {
	return fault.Byzantine{C: c, Sem: sem}
}

// FaultModel is one entry of the fault-model registry: an injector
// factory plus the worst-case deviation caps that admit the model to
// the paper's Fep machinery (see DESIGN.md for the catalogue).
type FaultModel = fault.Model

// FaultParams configures a fault-model instantiation.
type FaultParams = fault.Params

// FaultModels lists every registered fault model, sorted by name
// (crash, byzantine, stuck, intermittent, noise, signflip, bitflip,
// ...).
func FaultModels() []FaultModel { return fault.Models() }

// LookupFaultModel returns the named fault model.
func LookupFaultModel(name string) (FaultModel, bool) { return fault.Lookup(name) }

// NewFaultInjector instantiates a registered fault model by name,
// erroring with the list of valid names for unknown models.
func NewFaultInjector(name string, p FaultParams) (fault.Injector, error) {
	return fault.NewInjector(name, p)
}

// RegisterFaultModel adds a custom model to the registry (panics on
// duplicate names — registration belongs in init functions).
func RegisterFaultModel(m FaultModel) { fault.Register(m) }

// DeviationFep generalises Theorem 2 to heterogeneous per-fault
// deviation caps: devs[l-1] holds one cap per faulty neuron of layer l.
// It is how mixed fault-model configurations (one neuron crashed, a
// neighbour stuck, another noisy) are certified by a single O(total
// faults) formula.
func DeviationFep(s Shape, devs [][]float64) float64 {
	return core.DeviationFep(s, devs)
}

// FaultedForward evaluates the damaged network Ffail on x. For repeated
// evaluation of one plan, use CompilePlan once and call the compiled
// plan's methods — the steady state then allocates nothing.
func FaultedForward(n Model, p Plan, inj fault.Injector, x []float64) float64 {
	return fault.Forward(n, p, inj, x)
}

// CompiledPlan is a fault plan indexed once against a network for
// repeated, allocation-free evaluation (see fault.CompiledPlan for the
// concurrency contract).
type CompiledPlan = fault.CompiledPlan

// CompilePlan indexes a plan for repeated evaluation.
func CompilePlan(n Model, p Plan) *CompiledPlan { return fault.Compile(n, p) }

// Scratch holds preallocated buffers for allocation-free forward passes
// of any model (ForwardModel). Not safe for concurrent use.
type Scratch = nn.Scratch

// NewScratch returns evaluation scratch sized for any model.
func NewScratch(m Model) *Scratch { return nn.NewScratch(m) }

// BatchLanes is the default lane count of the batched plan engine: how
// many damaged sweeps share each weight-matrix pass.
const BatchLanes = fault.BatchLanes

// BatchPlan evaluates up to Lanes() fault plans against one model as a
// single fused multi-lane sweep, bit-identical per lane to the
// one-at-a-time CompiledPlan oracle (see fault.BatchPlan for the
// memory model and concurrency contract).
type BatchPlan = fault.BatchPlan

// CompileBatch builds a batched evaluator with the given lane capacity
// (0 selects BatchLanes). Load plans with Reset or ResetShared, then
// evaluate with ErrorsOnTrace/ErrorsOnTraces.
func CompileBatch(m Model, lanes int) *BatchPlan { return fault.CompileBatch(m, lanes) }

// Network32 is the single-precision inference lane of a Network: same
// topology, float32 weights and arithmetic, half the memory traffic.
// Its accuracy gap against the float64 oracle is certified by
// Float32Lane, not bit-identity.
type Network32 = nn.Network32

// Float32Lane pairs a Network32 with its Theorem 5 accuracy
// certificate (per-layer rounding λ_l propagated by PrecisionBound).
type Float32Lane = quant.Float32Lane

// NewFloat32Lane rounds n to single precision and derives the
// certificate; it errors on unbounded activations, which admit no cap.
func NewFloat32Lane(n *Network) (*Float32Lane, error) { return quant.Float32(n) }

// MaxFaultError measures the largest |Fneu - Ffail| over the inputs.
func MaxFaultError(n Model, p Plan, inj fault.Injector, inputs [][]float64) float64 {
	return fault.MaxError(n, p, inj, inputs)
}

// AdversarialPlan fails the heaviest-weight neurons per layer — the
// worst-case adversary of the tightness proofs.
func AdversarialPlan(n Model, perLayer []int) Plan {
	return fault.AdversarialNeuronPlan(n, perLayer)
}

// RandomPlan fails uniformly chosen neurons per layer.
func RandomPlan(r *Rand, n Model, perLayer []int) Plan {
	return fault.RandomNeuronPlan(r, n, perLayer)
}

// Fit trains a fresh sigmoid-style network on the target and returns it
// with the training report's final MSE and the measured sup-norm ε'.
func Fit(target Target, widths []int, act Activation, cfg TrainConfig) (*Network, float64, float64) {
	net, rep, sup := train.Fit(target, widths, act, cfg)
	return net, rep.FinalLoss, sup
}

// Sine1D, XORLike and ControlSurface are representative targets from the
// approximation library (see internal/approx for the full set).
func Sine1D(cycles float64) Target { return approx.Sine1D(cycles) }

// XORLike is the smooth exclusive-or surface on [0,1]^2.
func XORLike() Target { return approx.XORLike() }

// ControlSurface is a smooth 3-input flight-control-like response map.
func ControlSurface() Target { return approx.ControlSurface() }

// Quantize builds a fixed-point implementation with a Theorem 5
// certificate (Application A).
func Quantize(n *Network, weightBits int) (*quant.Quantized, error) {
	return quant.Quantize(n, quant.Options{WeightBits: weightBits})
}

// CertifiedWaits derives boosting wait counts from a tolerated crash
// distribution (Corollary 2), erroring if the distribution is not
// tolerated.
func CertifiedWaits(n *Network, faults []int, eps, epsPrime float64) ([]int, error) {
	return dist.CertifiedWaits(n, faults, eps, epsPrime)
}

// SimulateLatency runs one virtual-time evaluation with per-neuron
// latencies; waits enables the boosting scheme (nil = wait for all).
func SimulateLatency(n *Network, x []float64, lat dist.LatencyModel, waits []int, r *Rand) (dist.BoostResult, error) {
	return dist.Simulate(n, x, lat, waits, r)
}

// RunDistributed evaluates the network as a concurrent message-passing
// system of neuron goroutines (crash processes when byz is nil).
func RunDistributed(n *Network, p Plan, byz dist.ByzStrategy, x []float64) (dist.Result, error) {
	return dist.Run(n, p, byz, dist.SynapseDeviation{}, x)
}

// MixedDistribution describes simultaneous crash, Byzantine and synapse
// failures (see core.MixedFep).
type MixedDistribution = core.MixedDistribution

// MixedFep bounds the output deviation under simultaneous crash,
// Byzantine and synapse failures.
func MixedFep(s Shape, d MixedDistribution, c float64) float64 {
	return core.MixedFep(s, d, c)
}

// MixedTolerates is Theorem 3 extended to mixed distributions.
func MixedTolerates(s Shape, d MixedDistribution, c, eps, epsPrime float64) bool {
	return core.MixedTolerates(s, d, c, eps, epsPrime)
}

// RemoveNeurons physically removes hidden neurons; the result computes
// exactly what the original computes when those neurons crash (the
// Section I "could have been eliminated" identity).
func RemoveNeurons(n *Network, neurons map[int][]int) (*Network, error) {
	return nn.RemoveNeurons(n, neurons)
}

// SplitNeurons replaces every neuron of a layer with k exact copies whose
// outgoing weights are divided by k: the function (and ε') is preserved
// exactly while w_m of the next synapse layer shrinks k-fold —
// over-provisioning as a post-hoc robustification transform.
func SplitNeurons(n *Network, layer, k int) (*Network, error) {
	return nn.SplitNeurons(n, layer, k)
}

// MonteCarlo samples random failure configurations and returns the
// empirical error profile (mean, quantiles, max) — the probabilistic
// complement of the worst-case Fep.
func MonteCarlo(n Model, perLayer []int, c float64, inputs [][]float64, trials int, r *Rand) fault.Profile {
	return fault.MonteCarlo(n, perLayer, c, core.DeviationCap, inputs, trials, r)
}

// ExhaustiveResult reports an exhaustive worst-case search: the maximal
// error, a plan attaining it, and the visited/pruned configuration
// split.
type ExhaustiveResult = fault.ExhaustiveResult

// WorstCase is the tree-structured exhaustive search engine: damaged
// prefixes are shared across sibling configurations and subtrees whose
// Fep-style bound cannot beat the incumbent are soundly pruned, with
// the result guaranteed bit-identical to the flat scalar enumeration
// (see fault.WorstCase).
type WorstCase = fault.WorstCase

// WorstCaseOptions configures a WorstCase engine.
type WorstCaseOptions = fault.WorstCaseOptions

// SearchState is the mergeable, serialisable progress of a worst-case
// search — the frontier checkpoint of resumable sweeps.
type SearchState = fault.SearchState

// NewSearchState returns an empty search state (no incumbent).
func NewSearchState() SearchState { return fault.NewSearchState() }

// NewWorstCase builds a tree-structured exhaustive engine over the
// given fault distribution and inputs.
func NewWorstCase(m Model, perLayer []int, inputs [][]float64, opts WorstCaseOptions) (*WorstCase, error) {
	return fault.NewWorstCase(m, perLayer, inputs, opts)
}

// ExhaustiveWorstCrash enumerates every crash configuration of the
// distribution through the pruned tree engine and returns the worst
// error with a plan attaining it.
func ExhaustiveWorstCrash(n Model, perLayer []int, inputs [][]float64, maxConfigs int64) (ExhaustiveResult, error) {
	return fault.ExhaustiveWorstCrash(n, perLayer, inputs, maxConfigs)
}

// CountConfigurations returns the number of distinct failure
// configurations Π_l C(N_l, f_l) — the combinatorial explosion the
// paper's Fep avoids (math.MaxInt64 on overflow).
func CountConfigurations(widths, perLayer []int) (int64, error) {
	return fault.CountConfigurations(widths, perLayer)
}

// WorstInput hill-climbs for an input maximising the damaged-vs-nominal
// error.
func WorstInput(n Model, p Plan, inj fault.Injector, r *Rand, restarts, steps int) ([]float64, float64) {
	return fault.WorstInput(n, p, inj, r, restarts, steps)
}

// Stream processes inputs while failures accumulate on a schedule,
// reporting per-round errors and certificates.
func Stream(n *Network, inputs [][]float64, schedule []dist.FailureEvent, capacity float64) ([]dist.StreamResult, error) {
	return dist.Stream(n, inputs, schedule, capacity)
}

// BuildRobust constructs a single-layer approximation of a 1-D target
// certified (Theorem 1) to mask the requested number of crashes at
// accuracy eps — Corollary 1 as a constructor.
func BuildRobust(target Target, faults int, eps float64, maxWidth int) (*Network, approx.Certificate, error) {
	return approx.BuildRobust(target, faults, eps, maxWidth)
}

// Store is the content-addressed JSON artifact store: trained networks,
// quantised-model recipes and experiment outcome sets saved under
// sha256-derived IDs with a human-readable manifest (see
// internal/store).
type Store = store.Store

// StoreEntry is one manifest record of a Store.
type StoreEntry = store.Entry

// OpenStore opens (creating if needed) the artifact store rooted at
// dir.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// Certifier amortises repeated certificate queries against one shape:
// steady-state Fep/tolerance computations allocate nothing. Not safe
// for concurrent use — pool per goroutine.
type Certifier = core.Certifier

// NewCertifier validates the shape and returns a Certifier for it.
func NewCertifier(s Shape) (*Certifier, error) { return core.NewCertifier(s) }

// NewLayeredGraph generates a fully connected layered graph — the
// dense special case of the sparse-DAG model.
func NewLayeredGraph(r *Rand, in int, widths []int, act Activation) *GraphNet {
	return graph.NewLayered(r, in, widths, act)
}

// NewSparseGraph generates a layered graph where every node reads a
// random density-fraction of the previous level (at least one
// in-edge). The result is layer-expressible: LowerGraph succeeds.
func NewSparseGraph(r *Rand, in int, widths []int, act Activation, density float64) *GraphNet {
	return graph.NewSparse(r, in, widths, act, density)
}

// NewSmallWorldGraph generates a feed-forward Watts-Strogatz graph:
// a ring-lattice wiring of in-degree k per node, each edge rewired to
// a uniformly random earlier node with probability beta. beta = 0 is
// layer-expressible; beta > 0 generally introduces skip connections
// and exercises the native DAG engine.
func NewSmallWorldGraph(r *Rand, in int, widths []int, act Activation, k int, beta float64) *GraphNet {
	return graph.NewSmallWorld(r, in, widths, act, k, beta)
}

// LowerGraph materialises the dense network equivalent to a
// layer-expressible graph — the bit-identity test oracle; it errors
// when skip connections make the graph not layer-expressible.
func LowerGraph(g *GraphNet) (*Network, error) { return g.Lower() }

// GraphFromNetwork builds the exact sparse-DAG twin of a dense
// network (all edges present, zeros included): forward outputs are
// bit-identical.
func GraphFromNetwork(n *Network) *GraphNet { return graph.FromNetwork(n) }

// IsLayered reports whether every edge of the model spans exactly one
// level — the premise of the layered Shape algebra (Theorems 2-4) and
// of the prefix-sharing worst-case tree engine. Non-layered models
// are priced by NodeShape and evaluated by the DAG engine tiers.
func IsLayered(m Model) bool { return nn.IsLayered(m) }

// WattsStrogatz samples a classic undirected Watts-Strogatz
// small-world graph on n ring nodes (even degree k, rewiring
// probability beta), returning the edge list — the topology source of
// NewSmallWorldGraph, exported for standalone topology studies.
func WattsStrogatz(r *Rand, n, k int, beta float64) [][2]int {
	return r.WattsStrogatz(n, k, beta)
}

// NodeShape is the per-node certificate surface for arbitrary-
// topology models: each node carries its own amplification factor
// (the tightest product of Lipschitz gains over all paths to the
// output), and every Theorem 2-4 style query prices against the
// worst top-f nodes per level. For layered models it coincides with
// the Shape bounds; for skip graphs it is the sound generalisation.
// Immutable after construction and safe for concurrent use.
type NodeShape = core.NodeShape

// NodeShapeOf computes the per-node shape of any model in O(E).
func NodeShapeOf(m Model) (*NodeShape, error) { return core.NodeShapeOf(m) }

// SubnetCert is an independently certified span of a network: input
// and output widths, per-output worst-case fault deviations (Fep),
// and the input-to-output gain matrix that lets downstream
// certificates amplify upstream ones.
type SubnetCert = core.SubnetCert

// CertifySpan certifies levels [lo, hi] of a model as a standalone
// subnetwork under the span's fault distribution; it errors when an
// edge crosses the cut boundaries (use Cuts for admissible
// boundaries).
func CertifySpan(m Model, lo, hi int, faults []int, c float64) (SubnetCert, error) {
	return core.CertifySpan(m, lo, hi, faults, c)
}

// ComposeCerts stitches two certified spans wired in series: the
// composite Fep is b's own deviation plus a's deviations amplified
// through b's gains. Compositional certification — certify halves
// independently, stitch, and the bound still dominates the measured
// monolith.
func ComposeCerts(a, b SubnetCert) (SubnetCert, error) { return core.Compose(a, b) }

// Cuts lists the levels after which a model can be cut into two
// independently certifiable spans: exactly those spanned by no skip
// edge. Strictly layered models can be cut everywhere.
func Cuts(m Model) []int { return core.Cuts(m) }

// ServeConfig sizes the robustness-query service.
type ServeConfig = serve.Config

// Server is the long-running robustness-query HTTP service: bounds,
// injection, batched evaluation, Monte Carlo profiles and exhaustive
// worst-case sweeps over stored networks, with cached compiled fault
// plans, pooled scratch, and a fault-tolerant async job tier (see
// internal/serve and internal/jobs).
type Server = serve.Server

// NewServer builds a query service (with a store configured it also
// starts the async job tier, resuming jobs a previous process left
// behind); expose it with Handler, release it with Close.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// JobRecord is the durable description of one async job: its lifecycle
// state, attempts, progress, checkpoints, and result address.
type JobRecord = jobs.Record

// JobState is a job's lifecycle position: queued, running,
// checkpointed, done, failed, or cancelled.
type JobState = jobs.State

// Serve listens on addr and answers robustness queries until ctx is
// cancelled, then shuts down gracefully. logf (optional) receives one
// "listening on <addr>" line once the listener is bound.
func Serve(ctx context.Context, addr string, cfg ServeConfig, logf func(format string, args ...any)) error {
	return serve.Run(ctx, addr, cfg, logf)
}
