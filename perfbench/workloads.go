package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// model is one generated model as the server sees it: the document the
// benchmark uploads, the model parsed back from those bytes (so library
// replays run on exactly the weights the server holds), and its store ID.
type model struct {
	name string
	doc  []byte
	m    nn.Model
	id   string
}

// reqSpec is one entry of a workload's request mix. Every request type
// is drawn with probability weight/Σweights.
type reqSpec struct {
	weight int
	route  string // bounds, eval, inject, worstcase, montecarlo, upload
	model  string // target model name (upload: the shape of the fresh network)
	faults []int
	mode   string  // inject: fault model name
	c      float64 // bounds/montecarlo deviation cap
	trials int     // montecarlo
}

// jobSpec is one slot of a workload's job cycle; each job phase walks
// the slots of its kind in order.
type jobSpec struct {
	kind   string // worstcase or montecarlo
	model  string
	faults []int
	c      float64
	trials int
}

// workload is a named traffic mix. Every workload runs the same four
// phases — open-loop requests at a frozen rate, closed-loop requests for
// capacity, then closed-loop worst-case jobs and closed-loop Monte
// Carlo jobs — and differs in its models, its mixes and how --seconds
// is split between the phases, so each one loads a different set of
// layers while every run still reports every end-to-end metric. The
// two job kinds run in turn rather than interleaved: a Monte Carlo
// campaign occupies the whole worker pool, and worst-case jobs queued
// behind its shards would measure the interleaving, not the tree
// engine.
type workload struct {
	name string
	why  string
	// rate is the frozen open-loop offered rate in requests per second,
	// about a fifth of the closed-loop capacity measured at the commit
	// that defined the benchmark: enough headroom that the server keeps
	// up while the hypervisor steals a third of the CPU.
	rate float64
	// split is the share of --seconds of each phase: open loop, closed
	// loop, worst-case jobs, Monte Carlo jobs.
	split [4]float64
	// models generates the workload's models from the seed.
	models []string
	reqs   []reqSpec
	jobs   []jobSpec
}

// Input dimension shared by every dense and graph model; conv models
// read a 16-wide signal.
const inputDim = 8

// Sizes of the per-request input sets.
const (
	evalInputs = 8 // /v1/eval batch
	wcInputs   = 4 // worst-case sweeps (BENCH_8/10 use 4)
	mcInputs   = 8 // Monte Carlo (BENCH_7 uses 8)
)

var workloads = []*workload{
	{
		name:   "serve-mix",
		why:    "route mix on small dense, skip-graph and conv1d models: time goes to serve decode/encode, the per-network cache and core pricing",
		rate:   450,
		split:  [4]float64{0.45, 0.30, 0.125, 0.125},
		models: []string{"dense24", "ws24", "conv1d"},
		reqs: []reqSpec{
			{weight: 10, route: "bounds", model: "dense24", faults: []int{1, 1}, c: 1},
			{weight: 10, route: "bounds", model: "ws24", faults: []int{1, 1}, c: 1},
			{weight: 8, route: "bounds", model: "conv1d", faults: []int{1, 1}, c: 1},
			{weight: 7, route: "eval", model: "dense24"},
			{weight: 7, route: "eval", model: "ws24"},
			{weight: 6, route: "eval", model: "conv1d"},
			{weight: 7, route: "inject", model: "dense24", faults: []int{2, 2}, mode: "crash"},
			{weight: 7, route: "inject", model: "ws24", faults: []int{2, 2}, mode: "byzantine"},
			{weight: 6, route: "inject", model: "conv1d", faults: []int{1, 1}, mode: "crash"},
			{weight: 4, route: "worstcase", model: "dense24", faults: []int{1, 1}},
			{weight: 4, route: "worstcase", model: "ws24", faults: []int{1, 1}},
			{weight: 5, route: "montecarlo", model: "dense24", faults: []int{2, 2}, c: 0.5, trials: 200},
			{weight: 5, route: "montecarlo", model: "ws24", faults: []int{2, 2}, c: 0.5, trials: 200},
			{weight: 2, route: "upload", model: "dense24", faults: []int{1, 1}, c: 1},
		},
		jobs: []jobSpec{
			{kind: "worstcase", model: "dense24", faults: []int{1, 1}},
			{kind: "montecarlo", model: "dense24", faults: []int{2, 2}, trials: 200},
		},
	},
	{
		name:   "campaign-dense",
		why:    "async worst-case and Monte Carlo jobs on dense layered nets: time goes to the fault tree and batch engines, tensor lane kernels and jobs",
		rate:   600,
		split:  [4]float64{0.25, 0.08, 0.17, 0.50},
		models: append(instances("dense24", "dense64"), "wide448"),
		reqs:   campaignReqs("dense24", "dense64"),
		jobs:   campaignJobs("dense24", "dense64", "wide448"),
	},
	{
		name:   "campaign-graph",
		why:    "the same jobs on skip graphs and a sparse 1024-wide DAG: time goes to CSR gathers, the DAG bounder and the DAG tree walk",
		rate:   800,
		split:  [4]float64{0.25, 0.08, 0.17, 0.50},
		models: append(instances("ws24", "ws64"), "sparse1024"),
		reqs:   campaignReqs("ws24", "ws64"),
		jobs:   campaignJobs("ws24", "ws64", "sparse1024"),
	},
}

// campaignReqs is the light request mix the campaign workloads run next
// to their jobs, spread over every drawn instance of the worst-case
// shapes: what a query costs on a skip graph depends on its draw.
func campaignReqs(small, mid string) []reqSpec {
	var out []reqSpec
	for i := 0; i < wcInstances; i++ {
		sm, md := fmt.Sprintf("%s#%d", small, i), fmt.Sprintf("%s#%d", mid, i)
		out = append(out,
			reqSpec{weight: 3, route: "bounds", model: sm, faults: []int{2, 2}, c: 1},
			reqSpec{weight: 3, route: "bounds", model: md, faults: []int{1, 1}, c: 1},
			reqSpec{weight: 2, route: "eval", model: sm},
			reqSpec{weight: 2, route: "eval", model: md},
			reqSpec{weight: 1, route: "inject", model: sm, faults: []int{2, 2}, mode: "crash"},
			reqSpec{weight: 1, route: "inject", model: md, faults: []int{1, 1}, mode: "byzantine"},
		)
	}
	return append(out, reqSpec{weight: 2, route: "upload", model: small + "#0", faults: []int{1, 1}, c: 1})
}

// mcTrials sizes one campaign Monte Carlo job: large enough that the
// batch engine dominates the job, small enough that a run completes
// well over a hundred jobs of each kind.
const mcTrials = 64

// wcInstances is how many independently drawn models of each shape the
// campaign jobs and requests cycle through. How much the bounders prune,
// and on skip graphs how much a query costs, depends on the draw, so
// one model per shape made a run's figures hinge on it (spreads of 0.3
// over five seeds on campaign-graph with one draw, 0.15-0.18 with four).
const wcInstances = 8

// instances names wcInstances draws of each shape ("ws24#0", ...).
func instances(shapes ...string) []string {
	var out []string
	for _, s := range shapes {
		for i := 0; i < wcInstances; i++ {
			out = append(out, fmt.Sprintf("%s#%d", s, i))
		}
	}
	return out
}

// campaignJobs is the campaign job cycle: Monte Carlo on the wide
// model, and worst-case sweeps three quarters on the mid shape with
// faults 1,1 and one quarter on the small shape with faults 2,2, over
// every drawn instance. The unequal split keeps the worst-case median
// inside one mode of its latency distribution.
func campaignJobs(small, mid, wide string) []jobSpec {
	var out []jobSpec
	for i := 0; i < wcInstances; i++ {
		m := jobSpec{kind: "worstcase", model: fmt.Sprintf("%s#%d", mid, i), faults: []int{1, 1}}
		out = append(out, m, m, jobSpec{kind: "worstcase", model: fmt.Sprintf("%s#%d", small, i), faults: []int{2, 2}}, m)
	}
	return append(out, jobSpec{kind: "montecarlo", model: wide, faults: []int{4, 4, 4}, trials: mcTrials})
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// genModel builds the named model from r. Watts–Strogatz draws that
// happen to come out layered are redrawn: the skip graphs must exercise
// the DAG engines.
func genModel(name string, r *rng.Rand) (nn.Model, error) {
	sig := activation.NewSigmoid(1)
	dense := func(widths ...int) nn.Model {
		return nn.NewRandom(r, nn.Config{InputDim: inputDim, Widths: widths, Act: sig}, 0.5)
	}
	smallWorld := func(width int) nn.Model {
		for {
			g := graph.NewSmallWorld(r, inputDim, []int{width, width}, sig, 2, 0.5)
			if !nn.IsLayered(g) {
				return g
			}
		}
	}
	if i := strings.IndexByte(name, '#'); i >= 0 {
		name = name[:i] // an instance draws the same shape
	}
	switch name {
	case "dense24":
		return dense(24, 24), nil
	case "dense64":
		return dense(64, 64), nil
	case "wide448":
		return dense(448, 448, 448), nil
	case "ws24":
		return smallWorld(24), nil
	case "ws64":
		return smallWorld(64), nil
	case "sparse1024":
		return graph.NewSparse(r, inputDim, []int{1024, 1024, 1024}, sig, 0.01), nil
	case "conv1d":
		return conv.NewRandom(r, 16, []int{3, 3}, []int{2, 2}, sig, 0.5, true)
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

// newModel generates the named model and round-trips it through its
// document, as an upload does.
func newModel(name string, r *rng.Rand) (*model, error) {
	m, err := genModel(name, r)
	if err != nil {
		return nil, err
	}
	doc, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", name, err)
	}
	parsed, err := conv.ParseModel(doc)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	return &model{name: name, doc: doc, m: parsed}, nil
}

// Stream namespaces under the workload seed: every generated input is
// rng.NewStream(seed^ns, index), so the same seed always yields the
// same models, schedules and request bodies.
const (
	nsModel uint64 = 0x6d6f64656c << 8
	nsOpen  uint64 = 0x6f70656e << 8
	nsClose uint64 = 0x636c6f7365 << 8
	nsJob   uint64 = 0x6a6f62 << 8
	nsBody  uint64 = 0x626f6479 << 8
	nsFresh uint64 = 0x6672657368 << 8
)

func randomInputs(r *rng.Rand, n, d int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		r.Floats(xs[i], -1, 1)
	}
	return xs
}
