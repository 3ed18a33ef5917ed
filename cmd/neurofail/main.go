// Command neurofail is the CLI for the When-Neurons-Fail library: train
// ε'-approximations, compute Forward Error Propagation bounds, inject
// failures, quantise with Theorem 5 certificates, and run the boosting
// simulation.
//
// Usage:
//
//	neurofail train    -target sine -widths 16 -k 1 -epochs 400 -out net.json
//	neurofail bounds   -net net.json -faults 2 -c 1 -eps 0.4 -epsprime 0.1
//	neurofail inject   -net net.json -faults 2 -mode stuck -value 0.8
//	neurofail models
//	neurofail quantize -net net.json -bits 8
//	neurofail worstcase -net net.json -faults 2 -mode crash
//	neurofail boost    -net net.json -faults 1 -eps 0.4 -epsprime 0.1
//	neurofail store    add -dir artifacts -net net.json
//	neurofail serve    -addr :7077 -store artifacts -job-workers 4
//	neurofail jobs     submit -addr :7077 -kind montecarlo -request '{"network_id": "...", "trials": 100000}' -watch
//
// bounds, inject, montecarlo and worstcase take any saved model — dense,
// convolutional or graph — and answer exactly what the matching /v1
// route answers for it. inject's -mode accepts any model registered in
// the fault-model registry (crash, byzantine, stuck, intermittent,
// noise, signflip, bitflip, ...); `neurofail models` prints the
// catalogue.
//
// store manages the content-addressed artifact store (networks,
// quantised-model recipes, experiment outcomes) and serve exposes the
// engine as a long-running HTTP JSON API over that store (see
// DESIGN.md §5).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/activation"
	"repro/internal/approx"
	"repro/internal/cliutil"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/train"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "bounds":
		err = cmdBounds(os.Args[2:])
	case "inject":
		err = cmdInject(os.Args[2:])
	case "models":
		err = cmdModels(os.Args[2:])
	case "quantize":
		err = cmdQuantize(os.Args[2:])
	case "boost":
		err = cmdBoost(os.Args[2:])
	case "montecarlo":
		err = cmdMonteCarlo(os.Args[2:])
	case "worstcase":
		err = cmdWorstCase(os.Args[2:])
	case "stream":
		err = cmdStream(os.Args[2:])
	case "conv":
		err = cmdConv(os.Args[2:])
	case "graph":
		err = cmdGraph(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "jobs":
		err = cmdJobs(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "neurofail:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `neurofail <command> [flags]

commands:
  train     train an ε'-approximation of a target and save it as JSON
  bounds    compute Fep / tolerance certificates for a saved model (dense, conv or graph)
  inject    inject any registered fault model and compare measured error with its bound
  models    print the fault-model registry
  quantize   build a fixed-point implementation with a Theorem 5 certificate
  boost      simulate the Corollary 2 boosting scheme in virtual time
  montecarlo sample random failure configurations: error profile vs the bound
  worstcase  exhaustive worst-case search over every failure configuration (tree engine)
  stream     process a stream while failures accumulate on a schedule
  conv       convolutional models: train
  graph      arbitrary-topology models: gen
  store      manage the content-addressed artifact store (add, list, show)
  serve      run the long-running robustness-query HTTP service
  jobs       client for the server's async job tier (submit, status, watch, result, cancel, list)

run 'neurofail <command> -h' for per-command flags`)
}

func targets() map[string]approx.Target {
	m := map[string]approx.Target{}
	for _, t := range approx.Standard() {
		key := strings.SplitN(t.Name(), "(", 2)[0]
		if _, dup := m[key]; !dup {
			m[key] = t
		}
	}
	m["sine"] = approx.Sine1D(1)
	m["xor"] = approx.XORLike()
	m["control"] = approx.ControlSurface()
	return m
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	targetName := fs.String("target", "sine", "target function (sine, xor, control, franke2d, ...)")
	widthsArg := fs.String("widths", "16", "comma-separated hidden layer widths")
	k := fs.Float64("k", 1, "Lipschitz constant of the tuned sigmoid")
	epochs := fs.Int("epochs", 400, "training epochs")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "net.json", "output file")
	storeDir := fs.String("store", "", "also save the network into the artifact store at this directory")
	fs.Parse(args)

	target, ok := targets()[*targetName]
	if !ok {
		return fmt.Errorf("unknown target %q", *targetName)
	}
	widths, err := cliutil.ParseWidths(*widthsArg)
	if err != nil {
		return err
	}
	net, rep, sup := train.Fit(target, widths, activation.NewSigmoid(*k), train.Config{
		Epochs: *epochs, LR: 0.1, Momentum: 0.9, Seed: *seed,
	})
	if err := cliutil.SaveNetwork(*out, net); err != nil {
		return err
	}
	fmt.Printf("trained %s on %s: MSE %.5f, sup-norm ε' = %.4f -> %s\n",
		*widthsArg, target.Name(), rep.FinalLoss, sup, *out)
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		entry, err := st.PutNetwork(net, map[string]string{
			"target": target.Name(),
			"widths": *widthsArg,
			"source": "train",
		})
		if err != nil {
			return err
		}
		fmt.Printf("stored as %s\n", entry.ID)
	}
	return nil
}

// cmdStore manages the content-addressed artifact store: `add` ingests
// a network file (printing only the content address, script-friendly),
// `list` renders the manifest, `show` exports an artifact's bytes,
// `rebuild` reconstructs a lost manifest from the object tree.
func cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: neurofail store <add|list|show|rebuild> [flags]")
	}
	switch args[0] {
	case "add":
		fs := flag.NewFlagSet("store add", flag.ExitOnError)
		dir := fs.String("dir", "neurofail-store", "store directory")
		netPath := fs.String("net", "net.json", "network file to ingest")
		fs.Parse(args[1:])
		st, err := store.Open(*dir)
		if err != nil {
			return err
		}
		// Any model document is accepted: untagged dense networks and
		// "arch"-tagged conv nets land under their own kinds.
		net, err := cliutil.LoadModel(*netPath)
		if err != nil {
			return err
		}
		entry, err := st.PutModel(net, map[string]string{"source": *netPath})
		if err != nil {
			return err
		}
		fmt.Println(entry.ID)
		return nil
	case "list":
		fs := flag.NewFlagSet("store list", flag.ExitOnError)
		dir := fs.String("dir", "neurofail-store", "store directory")
		kind := fs.String("kind", "", "filter by artifact kind (network, quantized, outcomes; empty = all)")
		fs.Parse(args[1:])
		st, err := store.Open(*dir)
		if err != nil {
			return err
		}
		tb := metrics.NewTable("", "ID", "KIND", "CREATED", "BYTES", "META")
		for _, e := range st.List(*kind) {
			meta := make([]string, 0, len(e.Meta))
			for k, v := range e.Meta {
				meta = append(meta, k+"="+v)
			}
			sort.Strings(meta)
			tb.AddRow(store.ShortID(e.ID), e.Kind, e.Created.Format("2006-01-02 15:04:05"),
				fmt.Sprint(e.Bytes), strings.Join(meta, " "))
		}
		return tb.Render(os.Stdout)
	case "show":
		fs := flag.NewFlagSet("store show", flag.ExitOnError)
		dir := fs.String("dir", "neurofail-store", "store directory")
		id := fs.String("id", "", "artifact ID or unique prefix")
		out := fs.String("out", "", "write the artifact to this file (default stdout)")
		fs.Parse(args[1:])
		if *id == "" {
			return fmt.Errorf("store show: -id is required")
		}
		st, err := store.Open(*dir)
		if err != nil {
			return err
		}
		data, entry, err := st.Raw(*id)
		if err != nil {
			return err
		}
		if *out == "" {
			fmt.Printf("%s\n", data)
			return nil
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("exported %s (%s, %d bytes) -> %s\n", store.ShortID(entry.ID), entry.Kind, entry.Bytes, *out)
		return nil
	case "rebuild":
		fs := flag.NewFlagSet("store rebuild", flag.ExitOnError)
		dir := fs.String("dir", "neurofail-store", "store directory")
		fs.Parse(args[1:])
		st, err := store.Open(*dir)
		if err != nil {
			return err
		}
		rep, err := st.Rebuild()
		if err != nil {
			return err
		}
		fmt.Printf("rebuilt manifest: %d artifacts (%d quarantined)\n", rep.Indexed, rep.Quarantined)
		return nil
	default:
		return fmt.Errorf("store: unknown subcommand %q (want add, list, show or rebuild)", args[0])
	}
}

// cmdServe runs the robustness-query service until SIGINT/SIGTERM, then
// shuts down gracefully.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "listen address (host:port; port 0 picks a free port)")
	storeDir := fs.String("store", "neurofail-store", "artifact store directory backing /v1/networks")
	workers := fs.Int("workers", 0, "Monte Carlo worker pool size (0 = number of CPUs)")
	jobWorkers := fs.Int("job-workers", 2, "async job tier: concurrent job workers")
	jobQueue := fs.Int("job-queue", 64, "async job tier: queue depth before submissions get 429")
	jobDeadline := fs.Duration("job-deadline", 0, "async job tier: per-attempt deadline (0 = unbounded)")
	jobRetries := fs.Int("job-retries", 3, "async job tier: attempts per job before it fails")
	debugAddr := fs.String("debug-addr", "", "optional net/http/pprof listen address (e.g. 127.0.0.1:6060); empty disables profiling")
	fs.Parse(args)
	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *debugAddr != "" {
		// The profiler gets its own mux and listener so /debug/pprof is
		// never exposed on the query service's address.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "neurofail: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintf(os.Stderr, "neurofail: pprof server: %v\n", err)
			}
		}()
	}
	return serve.Run(ctx, *addr, serve.Config{
		Store:       st,
		Workers:     *workers,
		JobWorkers:  *jobWorkers,
		JobQueue:    *jobQueue,
		JobDeadline: *jobDeadline,
		JobRetries:  *jobRetries,
	}, func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "neurofail: "+format+"\n", a...)
	})
}

// query is a loaded model of any architecture with a fault distribution
// resolved against it and the pricer core.PricerFor chooses for it —
// the state bounds, inject, montecarlo and worstcase share, so each
// answers exactly what the matching /v1 route answers.
type query struct {
	m      nn.Model
	shape  core.Shape
	pricer core.Pricer
	faults []int
}

// loadQuery loads a model document (dense, conv or graph) and resolves
// a fault distribution against it, clamping each entry to its layer
// width (the CLI convention; the service rejects instead).
func loadQuery(path, faultsArg string) (query, error) {
	m, err := cliutil.LoadModel(path)
	if err != nil {
		return query{}, err
	}
	newPricer, err := core.PricerFor(m)
	if err != nil {
		return query{}, err
	}
	s := core.ShapeOfModel(m)
	faults, err := cliutil.ParseFaults(faultsArg, m.NumLayers())
	if err != nil {
		return query{}, err
	}
	cliutil.ClampFaults(faults, s.Widths)
	return query{m: m, shape: s, pricer: newPricer(), faults: faults}, nil
}

// paramFlags registers the fault-model parameter flags shared by inject
// and worstcase, defaulting to fault.DefaultParams, and returns the
// parameters they fill.
func paramFlags(fs *flag.FlagSet) *fault.Params {
	p := fault.DefaultParams
	fs.Float64Var(&p.C, "c", p.C, "capacity for byzantine/noise models")
	fs.Float64Var(&p.Value, "value", p.Value, "latched output for the stuck model")
	fs.IntVar(&p.Bits, "bits", p.Bits, "code width for the bitflip model")
	fs.IntVar(&p.Bit, "bit", p.Bit, "flipped bit for the bitflip model (bits-1 = sign)")
	return &p
}

// lookupModel resolves a fault-model name, listing the registry when it
// is unknown.
func lookupModel(name string) (fault.Model, error) {
	model, ok := fault.Lookup(name)
	if !ok {
		return model, fmt.Errorf("unknown fault model %q; registered models: %s",
			name, strings.Join(fault.ModelNames(), ", "))
	}
	return model, nil
}

func cmdBounds(args []string) error {
	fs := flag.NewFlagSet("bounds", flag.ExitOnError)
	netPath := fs.String("net", "net.json", "model file (dense, conv or graph)")
	faultsArg := fs.String("faults", "1", "faults per layer (uniform or comma-separated)")
	c := fs.Float64("c", fault.DefaultParams.C, "synaptic capacity / deviation bound C")
	eps := fs.Float64("eps", 0, "required accuracy ε (0 = skip tolerance check)")
	epsPrime := fs.Float64("epsprime", 0, "achieved accuracy ε'")
	fs.Parse(args)

	if *c < 0 {
		return fmt.Errorf("c is negative")
	}
	q, err := loadQuery(*netPath, *faultsArg)
	if err != nil {
		return err
	}
	s, p, faults := q.shape, q.pricer, q.faults
	fmt.Printf("model:   %s L=%d widths=%v K=%g w_m=%v\n", conv.ArchOf(q.m), s.Layers(), s.Widths, s.K, s.MaxW)
	fmt.Printf("faults:  %v\n", faults)
	fmt.Printf("Fep (Byzantine, C=%g):  %.6f\n", *c, p.Fep(faults, *c))
	fmt.Printf("Fep (crash):            %.6f\n", p.CrashFep(faults))
	syn := core.SynapseFaults(p, make([]int, len(faults)+1), faults)
	fmt.Printf("SynapseFep (C=%g):      %.6f\n", *c, p.SynapseFep(syn, *c))
	if *eps > 0 {
		fmt.Printf("tolerated (Byzantine):  %v\n", p.Tolerates(faults, *c, *eps, *epsPrime))
		fmt.Printf("tolerated (crash):      %v\n", p.CrashTolerates(faults, *eps, *epsPrime))
		fmt.Printf("required signals/layer: %v (Corollary 2)\n", p.RequiredSignals(faults))
	}

	// Compositional certification: certify the spans either side of
	// every admissible interior cut independently and stitch them. The
	// stitched bound is sound but generally looser than the monolithic
	// per-node bound — the gap is the price of modular certification.
	// Skip connections remove the cuts they jump over.
	L := q.m.NumLayers()
	for _, cut := range core.Cuts(q.m) {
		if cut >= L {
			continue
		}
		a, err := core.CertifySpan(q.m, 1, cut, faults[:cut], *c)
		if err != nil {
			return err
		}
		b, err := core.CertifySpan(q.m, cut+1, L+1, faults[cut:], *c)
		if err != nil {
			return err
		}
		st, err := core.Compose(a, b)
		if err != nil {
			return err
		}
		fmt.Printf("stitched Fep (cut after level %d): %.6f\n", cut, st.Fep[0])
	}
	return nil
}

func cmdInject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	netPath := fs.String("net", "net.json", "model file (dense, conv or graph)")
	faultsArg := fs.String("faults", "1", "neuron faults per layer (ignored with -kernels)")
	kernels := fs.Int("kernels", 0, "conv models: instead fail the K largest shared kernel values per layer")
	mode := fs.String("mode", fault.DefaultModel, "fault model name (see 'neurofail models')")
	params := paramFlags(fs)
	fs.Float64Var(&params.Prob, "prob", params.Prob, "failure probability for the intermittent model")
	adversarial := fs.Bool("adversarial", true, "target heaviest weights (false = random)")
	seed := fs.Uint64("seed", fault.DefaultSeed, "seed for random plans and stochastic models")
	fs.Parse(args)

	model, err := lookupModel(*mode)
	if err != nil {
		return err
	}
	q, err := loadQuery(*netPath, *faultsArg)
	if err != nil {
		return err
	}
	if params.C < 0 {
		return fmt.Errorf("c is negative")
	}
	p := params.Seeded(q.m, *seed)
	inj, err := model.New(p)
	if err != nil {
		return err
	}
	var plan fault.Plan
	var dev, bound float64
	switch {
	case *kernels > 0:
		if plan, err = kernelPlan(q.m, *kernels); err != nil {
			return err
		}
		// A shared-weight fault is a fault on every tied synapse
		// instance: the certificate is SynapseFep over the instance
		// counts, with the model's per-synapse deviation cap.
		dev = model.SynapseDeviation(p, q.shape)
		bound = q.pricer.SynapseFep(plan.PerLayerSynapses(q.m.NumLayers()), dev)
	case *adversarial:
		plan = fault.AdversarialNeuronPlan(q.m, q.faults)
	default:
		plan = fault.RandomNeuronPlan(rng.New(*seed), q.m, q.faults)
	}
	if *kernels <= 0 {
		dev = model.NeuronDeviation(p, q.shape)
		bound = q.pricer.Fep(q.faults, dev)
	}
	inputs := metrics.StandardInputs(q.m.Width(0))
	var measured float64
	if model.Deterministic {
		measured = fault.MaxError(q.m, plan, inj, inputs)
	} else {
		measured = fault.MaxErrorSeq(q.m, plan, inj, inputs)
	}
	fmt.Printf("plan: %d neuron + %d synapse failures on a %s model (%s)\n",
		len(plan.Neurons), len(plan.Synapses), conv.ArchOf(q.m), model.Name)
	fmt.Printf("model: %s\n", model.Description)
	fmt.Printf("per-fault deviation cap:                    %.6f\n", dev)
	fmt.Printf("measured max |Fneu - Ffail| over %d inputs: %.6f\n", len(inputs), measured)
	fmt.Printf("Fep bound:                                  %.6f\n", bound)
	if bound > 0 {
		fmt.Printf("bound utilisation: %.1f%%\n", 100*measured/bound)
	}
	if measured > bound*(1+1e-9) {
		return fmt.Errorf("bound violated — this is a bug")
	}
	return nil
}

func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	fs.Parse(args)
	fmt.Printf("%-18s %-13s %s\n", "NAME", "DETERMINISTIC", "DESCRIPTION")
	for _, m := range fault.Models() {
		det := "yes"
		if !m.Deterministic {
			det = "no (needs rng)"
		}
		fmt.Printf("%-18s %-13s %s\n", m.Name, det, m.Description)
	}
	return nil
}

func cmdQuantize(args []string) error {
	fs := flag.NewFlagSet("quantize", flag.ExitOnError)
	netPath := fs.String("net", "net.json", "network file")
	bits := fs.Int("bits", 8, "fixed-point weight bits")
	actBits := fs.Int("actbits", 0, "activation bits (0 = full precision)")
	fs.Parse(args)

	net, err := cliutil.LoadNetwork(*netPath)
	if err != nil {
		return err
	}
	q, err := quant.Quantize(net, quant.Options{WeightBits: *bits, ActBits: *actBits})
	if err != nil {
		return err
	}
	inputs := metrics.StandardInputs(net.InputDim)
	fmt.Printf("weights: %d bits (memory %.1fx smaller than float64)\n",
		*bits, float64(quant.FullPrecisionBits(net))/float64(q.MemoryBits()))
	fmt.Printf("measured accuracy loss: %.6f\n", q.MeasuredError(inputs))
	fmt.Printf("Theorem 5 certificate:  %.6f\n", q.Bound())
	return nil
}

func cmdBoost(args []string) error {
	fs := flag.NewFlagSet("boost", flag.ExitOnError)
	netPath := fs.String("net", "net.json", "network file")
	faultsArg := fs.String("faults", "1", "crash distribution to boost against")
	eps := fs.Float64("eps", 0.4, "required accuracy ε")
	epsPrime := fs.Float64("epsprime", 0.1, "achieved accuracy ε'")
	trials := fs.Int("trials", 50, "simulation trials")
	seed := fs.Uint64("seed", 3, "seed")
	fs.Parse(args)

	net, err := cliutil.LoadNetwork(*netPath)
	if err != nil {
		return err
	}
	faults, err := cliutil.ParseFaults(*faultsArg, net.Layers())
	if err != nil {
		return err
	}
	waits, err := dist.CertifiedWaits(net, faults, *eps, *epsPrime)
	if err != nil {
		return err
	}
	lat := dist.HeavyTail{Base: 1, TailProb: 0.25, TailScale: 25}
	r := rng.New(*seed)
	var tBase, tBoost, worst float64
	for i := 0; i < *trials; i++ {
		x := make([]float64, net.InputDim)
		r.Floats(x, 0, 1)
		s := r.Uint64()
		base, err := dist.Simulate(net, x, lat, nil, rng.New(s))
		if err != nil {
			return err
		}
		boost, err := dist.Simulate(net, x, lat, waits, rng.New(s))
		if err != nil {
			return err
		}
		tBase += base.FinishTime
		tBoost += boost.FinishTime
		if e := math.Abs(boost.Output - net.Forward(x)); e > worst {
			worst = e
		}
	}
	n := float64(*trials)
	fmt.Printf("certified waits per layer: %v (Corollary 2, faults %v)\n", waits, faults)
	fmt.Printf("mean completion time: baseline %.2f, boosted %.2f (speedup %.2fx)\n",
		tBase/n, tBoost/n, tBase/tBoost)
	fmt.Printf("worst boosted error %.6f within certified slack %.6f\n", worst, *eps-*epsPrime)
	return nil
}

// cmdMonteCarlo profiles random failure configurations. Trial t draws
// from its own stream (fault.BatchPlan.MonteCarloRange), so the profile equals
// /v1/montecarlo's for the same model, faults, c, trials and seed.
func cmdMonteCarlo(args []string) error {
	fs := flag.NewFlagSet("montecarlo", flag.ExitOnError)
	netPath := fs.String("net", "net.json", "model file (dense, conv or graph)")
	faultsArg := fs.String("faults", "1", "faults per layer")
	c := fs.Float64("c", 0, "byzantine capacity (0 = crash failures)")
	trials := fs.Int("trials", fault.DefaultTrials, "random configurations to sample")
	seed := fs.Uint64("seed", fault.DefaultTrialSeed, "seed")
	fs.Parse(args)

	if *c < 0 {
		return fmt.Errorf("c is negative")
	}
	if *trials < 1 {
		return fmt.Errorf("trials %d: need at least one", *trials)
	}
	q, err := loadQuery(*netPath, *faultsArg)
	if err != nil {
		return err
	}
	traces := fault.CleanTraces(q.m, metrics.StandardInputs(q.m.Width(0)))
	errs := make([]float64, *trials)
	parallel.ForChunked(len(errs), fault.BatchLanes, func(lo, hi int) {
		fault.CompileBatch(q.m, fault.BatchLanes).MonteCarloRange(q.faults, *c, core.DeviationCap, traces, *seed, lo, errs[lo:hi])
	})
	prof := fault.ProfileOf(errs)
	var bound float64
	if *c == 0 {
		bound = q.pricer.CrashFep(q.faults)
	} else {
		bound = q.pricer.Fep(q.faults, *c)
	}
	fmt.Printf("random failure profile over %d configurations (faults %v):\n", prof.Trials, q.faults)
	fmt.Printf("  mean %.5f  median %.5f  q90 %.5f  q99 %.5f  max %.5f\n",
		prof.Stats.Mean, prof.Stats.Median, prof.Q90, prof.Q99, prof.Stats.Max)
	fmt.Printf("  worst-case Fep bound: %.5f (max reaches %.1f%% of it)\n",
		bound, 100*prof.Stats.Max/bound)
	return nil
}

// cmdWorstCase runs the tree-structured exhaustive search: every
// failure configuration of the distribution, with damaged-prefix
// sharing and bound-guided pruning, against the Fep certificate.
func cmdWorstCase(args []string) error {
	fs := flag.NewFlagSet("worstcase", flag.ExitOnError)
	netPath := fs.String("net", "net.json", "model file (dense, conv or graph)")
	faultsArg := fs.String("faults", "1", "faults per layer")
	mode := fs.String("mode", fault.DefaultModel, "deterministic fault model name (see 'neurofail models')")
	params := paramFlags(fs)
	maxConfigs := fs.Int64("max", fault.MaxWorstCaseConfigs, "refuse sweeps with more configurations")
	noPrune := fs.Bool("noprune", false, "disable bound-guided pruning (visit everything)")
	fs.Parse(args)

	model, err := lookupModel(*mode)
	if err != nil {
		return err
	}
	if !model.Deterministic {
		return fmt.Errorf("fault model %q is stochastic; exhaustive search needs a deterministic model — use 'neurofail montecarlo' instead", model.Name)
	}
	q, err := loadQuery(*netPath, *faultsArg)
	if err != nil {
		return err
	}
	if params.C < 0 {
		return fmt.Errorf("c is negative")
	}
	p := *params
	p.Net = q.m
	inj, err := model.New(p)
	if err != nil {
		return err
	}
	inputs := metrics.StandardInputs(q.m.Width(0))
	eng, err := fault.NewWorstCase(q.m, q.faults, inputs, fault.WorstCaseOptions{
		Injector: inj, Prune: !*noPrune, MaxConfigs: *maxConfigs,
	})
	if err != nil {
		return err
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		return err
	}
	dev := model.NeuronDeviation(p, q.shape)
	bound := q.pricer.Fep(q.faults, dev)
	fmt.Printf("exhaustive %s sweep: %d configurations over %d inputs (faults %v)\n",
		model.Name, res.Configurations, len(inputs), q.faults)
	fmt.Printf("  visited %d, pruned %d (%.1f%%)\n", res.Visited, res.Pruned,
		100*float64(res.Pruned)/math.Max(float64(res.Configurations), 1))
	fmt.Printf("  worst error: %.6f at plan %v\n", res.WorstError, res.WorstPlan.Neurons)
	fmt.Printf("  Fep bound:   %.6f\n", bound)
	if bound > 0 {
		fmt.Printf("  bound utilisation: %.1f%%\n", 100*res.WorstError/bound)
	}
	if res.WorstError > bound*(1+1e-9) {
		return fmt.Errorf("bound violated — this is a bug")
	}
	return nil
}

func cmdStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	netPath := fs.String("net", "net.json", "network file")
	rounds := fs.Int("rounds", 12, "stream length")
	every := fs.Int("every", 3, "one neuron fails every N rounds")
	c := fs.Float64("c", 1, "byzantine capacity")
	byz := fs.Bool("byzantine", false, "failures lie instead of crashing")
	eps := fs.Float64("eps", 0, "accuracy requirement for the degradation forecast")
	epsPrime := fs.Float64("epsprime", 0, "achieved accuracy")
	seed := fs.Uint64("seed", 5, "seed")
	fs.Parse(args)

	net, err := cliutil.LoadNetwork(*netPath)
	if err != nil {
		return err
	}
	r := rng.New(*seed)
	inputs := make([][]float64, *rounds)
	for i := range inputs {
		inputs[i] = make([]float64, net.InputDim)
		r.Floats(inputs[i], 0, 1)
	}
	var schedule []dist.FailureEvent
	used := map[fault.NeuronFault]bool{}
	for round := 0; round < *rounds; round += *every {
		layer := r.Intn(net.Layers()) + 1
		for try := 0; try < 20; try++ {
			nf := fault.NeuronFault{Layer: layer, Index: r.Intn(net.Width(layer))}
			if !used[nf] {
				used[nf] = true
				schedule = append(schedule, dist.FailureEvent{Round: round, Neuron: nf, Byzantine: *byz})
				break
			}
		}
	}
	if *eps > 0 {
		dp, err := dist.DegradationPoint(net, *rounds, schedule, *c, *eps, *epsPrime)
		if err != nil {
			return err
		}
		if dp < 0 {
			fmt.Printf("forecast: the whole %d-round schedule stays certified at ε=%.3f\n", *rounds, *eps)
		} else {
			fmt.Printf("forecast: certification lost at round %d (ε=%.3f)\n", dp, *eps)
		}
	}
	results, err := dist.Stream(net, inputs, schedule, *c)
	if err != nil {
		return err
	}
	fmt.Println("round  faulty  error      certificate")
	for _, res := range results {
		fmt.Printf("%5d  %6d  %9.5f  %11.5f\n", res.Round, res.Faulty, res.Err, res.Certified)
	}
	return nil
}
