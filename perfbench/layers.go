package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// probeBudget bounds each timed loop of the layer probes.
const probeBudget = 150 * time.Millisecond

// loop calls fn until budget has passed (at least once) and returns
// the number of calls and the time they took.
func loop(budget time.Duration, fn func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if d := time.Since(start); d >= budget {
			return n, d
		}
	}
}

// perCall times a loop of fn as one span and returns the mean time per
// call.
func perCall(tr *tracer, parent int64, name string, fn func()) time.Duration {
	start := time.Now()
	n, d := loop(probeBudget, fn)
	tr.add(tr.newID(), parent, 0, name, start, start.Add(d), n)
	return d / time.Duration(n)
}

// medianOf runs fn n times, each as its own span, and returns the
// median duration.
func medianOf(tr *tracer, parent int64, name string, n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(tr.timed(parent, name, 1, fn))
	}
	return time.Duration(quantile(ds, 0.5))
}

// prober measures the per-layer metrics of a traced run. Every probe
// calls a layer's public functions from outside — over HTTP, through
// the server's in-process handler, or by replaying a library call with
// a request's exact inputs — and records the call as a span.
type prober struct {
	e          *env
	ph         *phases
	tr         *tracer
	out        map[string]value
	rooflineMB int
}

func (p *prober) set(name string, v float64, n int) { p.out[name] = value{v, n} }

// replay opens the root span of one probe.
func (p *prober) replay(name string) (int64, func()) {
	id, start := p.tr.newID(), time.Now()
	return id, func() { p.tr.add(id, 0, 0, "replay."+name, start, time.Now(), 1) }
}

// templateFor returns the workload's first request type on route, or
// prepares one on the workload's first model when the mix has none.
func (p *prober) templateFor(route string) (*reqTemplate, error) {
	for _, t := range p.e.tmpls {
		if t.spec.route == route {
			return t, nil
		}
	}
	m := p.e.models[p.e.w.models[0]]
	ones := make([]int, m.m.NumLayers())
	for i := range ones {
		ones[i] = 1
	}
	s := &reqSpec{route: route, model: m.name, faults: ones, c: 0.5, trials: 200, mode: "crash"}
	return p.e.template(s, 1<<20)
}

func (p *prober) serveInProcess(path string, body []byte) (int, int) {
	rec := httptest.NewRecorder()
	p.e.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Len()
}

func (p *prober) run() error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"loadgen", p.loadgen},
		{"http", p.transport},
		{"serve", p.handlers},
		{"core", p.pricing},
		{"worstcase", p.worstCase},
		{"inject", p.compiled},
		{"montecarlo", p.monteCarlo},
		{"kernels", p.kernels},
		{"roofline", p.roofline},
		{"forward", p.forward},
		{"parallel", p.dispatch},
		{"jobs", p.jobs},
		{"store", p.store},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	return nil
}

// loadgen reports how late the open-loop generator woke, and the mean
// response size of the traced request phases.
func (p *prober) loadgen() error {
	p.set("loadgen.lag_p99_ms", quantile(durMS(p.ph.lag), 0.99), len(p.ph.lag))
	var bytes, n float64
	for _, set := range [][]opResult{p.ph.open, p.ph.closed} {
		for i := range set {
			bytes += float64(len(set[i].body))
			n++
		}
	}
	p.set("serve.resp_bytes", bytes/n, int(n))
	return nil
}

// transport times the same bounds body over loopback HTTP and through
// the in-process handler, alternating, and reports the difference of
// the medians: the cost of net/http's client and server transport.
func (p *prober) transport() error {
	t, err := p.templateFor("bounds")
	if err != nil {
		return err
	}
	root, end := p.replay("transport")
	defer end()
	const n = 300
	rtt, handler := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		var status int
		rtt[i] = float64(p.tr.timed(root, "http.bounds", 1, func() { status, _, err = p.e.post(t.path, t.body) }))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("bounds over HTTP: status %d, %v", status, err)
		}
		handler[i] = float64(p.tr.timed(root, "serve.bounds", 1, func() { status, _ = p.serveInProcess(t.path, t.body) }))
		if status != http.StatusOK {
			return fmt.Errorf("bounds in process: status %d", status)
		}
	}
	p.set("http.rtt_minus_handler_us", (quantile(rtt, 0.5)-quantile(handler, 0.5))/1e3, n)
	return nil
}

// handlers times every route's handler in process with the workload's
// request bodies, counts the allocations of the bounds and inject
// handlers beyond the request shell, and times the first query on a
// freshly uploaded network.
func (p *prober) handlers() error {
	root, end := p.replay("handlers")
	defer end()
	for _, route := range []string{"bounds", "eval", "inject", "worstcase", "montecarlo"} {
		t, err := p.templateFor(route)
		if err != nil {
			return err
		}
		var status int
		d := perCall(p.tr, root, "serve."+route, func() { status, _ = p.serveInProcess(t.path, t.body) })
		if status != http.StatusOK {
			return fmt.Errorf("%s in process: status %d", route, status)
		}
		p.set("serve."+route+".handler_us", us(d), 1)
		if route == "bounds" || route == "inject" {
			shell := testing.AllocsPerRun(50, func() {
				httptest.NewRecorder()
				httptest.NewRequest(http.MethodPost, t.path, bytes.NewReader(t.body))
			})
			all := testing.AllocsPerRun(50, func() { p.serveInProcess(t.path, t.body) })
			p.set("serve."+route+".allocs", all-shell, 50)
		}
	}
	up, err := p.templateFor("upload")
	if err != nil {
		return err
	}
	const fresh = 16
	handler, cold := make([]float64, fresh), make([]float64, fresh)
	for i := 0; i < fresh; i++ {
		m, err := newModel(up.spec.model, rng.NewStream(p.e.seed^nsFresh, 1<<41|uint64(i)))
		if err != nil {
			return err
		}
		var status int
		handler[i] = float64(p.tr.timed(root, "serve.upload", 1, func() { status, _ = p.serveInProcess("/v1/networks", m.doc) }))
		if status != http.StatusCreated {
			return fmt.Errorf("upload in process: status %d", status)
		}
		// A second copy of the same shape, uploaded over HTTP, measures
		// the first query the way a client sees it.
		m2, err := newModel(up.spec.model, rng.NewStream(p.e.seed^nsFresh, 1<<42|uint64(i)))
		if err != nil {
			return err
		}
		r := p.e.send(pending{tmpl: up, fresh: m2}, p.tr, root, 0)
		if err := checkOp(&r); err != nil {
			return err
		}
		cold[i] = float64(r.cold)
	}
	p.set("serve.upload.handler_us", quantile(handler, 0.5)/1e3, fresh)
	p.set("serve.cold_first_query_ms", quantile(cold, 0.5)/1e6, fresh)
	return nil
}

// pricing replays the bounds request's certificate queries on the
// layered Certifier and on the per-node shape.
func (p *prober) pricing() error {
	t, err := p.templateFor("bounds")
	if err != nil {
		return err
	}
	root, end := p.replay("pricing")
	defer end()
	m, faults, c := t.model.m, t.spec.faults, t.spec.c
	cert, err := core.NewCertifier(core.ShapeOfModel(m))
	if err != nil {
		return err
	}
	var sink float64
	d := perCall(p.tr, root, "core.certifier.fep", func() { sink += cert.Fep(faults, c) })
	p.set("core.certifier.query_ns", float64(d), 1)
	// The per-node shape prices the first non-layered bounds model, or
	// the layered one when the workload has none.
	for _, t2 := range p.e.tmpls {
		if t2.spec.route == "bounds" && !nn.IsLayered(t2.model.m) {
			m, faults = t2.model.m, t2.spec.faults
			break
		}
	}
	ns, err := core.NodeShapeOf(m)
	if err != nil {
		return err
	}
	d = perCall(p.tr, root, "core.nodeshape.fep", func() { sink += ns.Fep(faults, c) })
	p.set("core.nodeshape.query_ns", float64(d), 1)
	floatSink = sink
	return nil
}

// floatSink keeps timed results alive.
var floatSink float64

// jobSample returns up to n finished jobs of each slot of the job cycle
// that has the given kind.
func (p *prober) jobSample(kind string, n int) []*jobResult {
	var out []*jobResult
	for i := range p.e.w.jobs {
		s := &p.e.w.jobs[i]
		if s.kind != kind {
			continue
		}
		taken := 0
		for _, j := range p.ph.jobs {
			if j.spec == s && j.ok() && taken < n {
				out = append(out, j)
				taken++
			}
		}
	}
	return out
}

// worstCase replays finished worst-case jobs through the library's
// pruned tree search with the server's options.
func (p *prober) worstCase() error {
	sample := p.jobSample("worstcase", 2)
	if len(sample) == 0 {
		return fmt.Errorf("no finished worst-case job")
	}
	root, end := p.replay("worstcase")
	defer end()
	pool := parallel.NewPool(0)
	defer pool.Close()
	var visited, pruned, configs int64
	var busy time.Duration
	for _, j := range sample {
		w, err := fault.NewWorstCase(j.model.m, j.spec.faults, j.inputs, fault.WorstCaseOptions{Prune: true, Pool: pool})
		if err != nil {
			return err
		}
		var res fault.ExhaustiveResult
		busy += p.tr.timed(root, "fault.worstcase.run", 1, func() { res, err = w.Run(context.Background()) })
		if err != nil {
			return err
		}
		visited += res.Visited
		pruned += res.Pruned
		configs += res.Configurations
	}
	p.set("core.prune_frac", float64(pruned)/float64(configs), len(sample))
	p.set("fault.worstcase.ns_per_visited", float64(busy)/float64(visited), len(sample))
	p.set("fault.worstcase.visited", float64(visited)/float64(len(sample)), len(sample))
	return nil
}

// standardInputs is the server's standard evaluation sample for a
// model (serve.cachedNet.standardInputs).
func standardInputs(m nn.Model) [][]float64 {
	if d := m.Width(0); d <= 2 {
		return metrics.Grid(d, 41)
	}
	return metrics.RandomPoints(rng.New(12345), m.Width(0), 500)
}

// compiled replays the inject request: the adversarial plan compiled
// once, evaluated on the standard inputs' clean traces; and times the
// clean traces of a freshly uploaded network, the work its first query
// pays.
func (p *prober) compiled() error {
	t, err := p.templateFor("inject")
	if err != nil {
		return err
	}
	root, end := p.replay("inject")
	defer end()
	m := t.model.m
	inj, err := fault.NewInjector(t.spec.mode, fault.Params{
		C: 1, Sem: core.DeviationCap, Value: 0.8, Prob: 0.5, Bits: 8, Bit: 7, Net: m,
		R: rng.New(7 ^ 0xfa0175),
	})
	if err != nil {
		return err
	}
	var cp *fault.CompiledPlan
	p.tr.timed(root, "fault.compile", 1, func() { cp = fault.Compile(m, fault.AdversarialNeuronPlan(m, t.spec.faults)) })
	traces := fault.CleanTraces(m, standardInputs(m))
	var sink float64
	d := perCall(p.tr, root, "fault.compiled.error_on_trace", func() {
		for _, tr := range traces {
			sink += cp.ErrorOnTrace(inj, tr)
		}
	})
	floatSink = sink
	p.set("fault.compiled.trace_us", us(d)/float64(len(traces)), len(traces))

	up, err := p.templateFor("upload")
	if err != nil {
		return err
	}
	fresh, err := newModel(up.spec.model, rng.NewStream(p.e.seed^nsFresh, 1<<43))
	if err != nil {
		return err
	}
	xs := standardInputs(fresh.m)
	d = medianOf(p.tr, root, "fault.clean_traces", 5, func() { fault.CleanTraces(fresh.m, xs) })
	p.set("fault.cleantraces_ms", ms(d), 5)
	return nil
}

// monteCarlo replays a finished Monte Carlo job single-threaded, the
// way each of the server's shards runs it: per batch of lanes, draw
// every trial's plan from its own stream, then sweep the batch over
// the clean traces. Plan drawing and the sweep are timed apart, and
// the replayed worst error must equal the job's.
func (p *prober) monteCarlo() error {
	sample := p.jobSample("montecarlo", 1)
	if len(sample) == 0 {
		return fmt.Errorf("no finished Monte Carlo job")
	}
	j := sample[0]
	root, end := p.replay("montecarlo")
	defer end()
	m, s := j.model.m, j.spec
	traces := fault.CleanTraces(m, j.inputs)
	bp := fault.CompileBatch(m, fault.BatchLanes)
	plans := make([]fault.Plan, fault.BatchLanes)
	injs := make([]fault.Injector, fault.BatchLanes)
	laneErr := make([]float64, fault.BatchLanes)
	errs := make([]float64, s.trials)
	var planT, sweepT time.Duration
	for i := 0; i < s.trials; i += fault.BatchLanes {
		lanes := min(fault.BatchLanes, s.trials-i)
		planT += p.tr.timed(root, "rng.plan", lanes, func() {
			for k := 0; k < lanes; k++ {
				r := rng.NewStream(j.seed, uint64(i+k))
				plans[k] = fault.RandomNeuronPlan(r, m, s.faults)
				if s.c == 0 {
					injs[k] = fault.Crash{}
				} else {
					injs[k] = fault.RandomByzantine{C: s.c, Sem: core.DeviationCap, R: r.Split()}
				}
			}
		})
		sweepT += p.tr.timed(root, "fault.batch.errors_on_trace", lanes*len(traces), func() {
			bp.Reset(plans[:lanes])
			for _, tr := range traces {
				bp.ErrorsOnTrace(injs[:lanes], tr, laneErr[:lanes])
				for k := 0; k < lanes; k++ {
					errs[i+k] = math.Max(errs[i+k], laneErr[k])
				}
			}
		})
	}
	var doc struct {
		Max float64 `json:"max"`
	}
	if err := json.Unmarshal(j.result, &doc); err != nil {
		return err
	}
	if got := fault.ProfileOf(errs).Stats.Max; got != doc.Max {
		return fmt.Errorf("Monte Carlo replay of job %s: max %v, job %v", j.rec.ID, got, doc.Max)
	}
	p.set("rng.plan_ns", float64(planT)/float64(s.trials), s.trials)
	p.set("fault.batch.lane_trace_ns", float64(sweepT)/float64(s.trials*len(traces)), s.trials*len(traces))
	return nil
}

// kernelModels picks the models the kernel probes time: the workload's
// largest dense network and largest graph, falling back to the
// serve-mix shape of a kind the workload lacks.
func (p *prober) kernelModels() (*nn.Network, *graph.Net, *conv.Net, error) {
	var dn *nn.Network
	var gn *graph.Net
	var cn *conv.Net
	for _, name := range p.e.w.models {
		switch m := p.e.models[name].m.(type) {
		case *nn.Network:
			if dn == nil || m.Parameters() > dn.Parameters() {
				dn = m
			}
		case *graph.Net:
			if gn == nil || edges(m) > edges(gn) {
				gn = m
			}
		case *conv.Net:
			cn = m
		}
	}
	fallback := func(name string) (nn.Model, error) {
		m, err := newModel(name, rng.NewStream(p.e.seed^nsModel, 1<<20))
		if err != nil {
			return nil, err
		}
		return m.m, nil
	}
	if dn == nil {
		m, err := fallback("dense24")
		if err != nil {
			return nil, nil, nil, err
		}
		dn = m.(*nn.Network)
	}
	if gn == nil {
		m, err := fallback("ws24")
		if err != nil {
			return nil, nil, nil, err
		}
		gn = m.(*graph.Net)
	}
	if cn == nil {
		m, err := fallback("conv1d")
		if err != nil {
			return nil, nil, nil, err
		}
		cn = m.(*conv.Net)
	}
	return dn, gn, cn, nil
}

func edges(g *graph.Net) int {
	n := 0
	for _, lv := range g.Levels {
		n += lv.Edges()
	}
	return n
}

// kernels times the two multi-lane kernels the batch and tree engines
// run — the dense lanes matvec and the CSR gather — on the workload's
// models at the engines' lane count, and the activation sweep. Bytes
// per call are computed from the array sizes: the weights or edge
// arrays once, each lane's inputs once and each lane's outputs once.
func (p *prober) kernels() error {
	dn, gn, _, err := p.kernelModels()
	if err != nil {
		return err
	}
	root, end := p.replay("kernels")
	defer end()
	lanes := fault.BatchLanes
	r := rng.New(p.e.seed)

	// Dense: the largest weight matrix.
	l := 0
	for i, w := range dn.Hidden {
		if w.Rows*w.Cols > dn.Hidden[l].Rows*dn.Hidden[l].Cols {
			l = i
		}
	}
	w := dn.Hidden[l]
	xs, ys := randomInputs(r, lanes, w.Cols), randomInputs(r, lanes, w.Rows)
	var bias []float64
	if l < len(dn.Biases) {
		bias = dn.Biases[l]
	}
	d := perCall(p.tr, root, "tensor.lanes.mulvec", func() { w.MulVecLanesAddTo(ys, xs, bias) })
	bytes := 8 * float64(w.Rows*w.Cols+lanes*(w.Cols+w.Rows))
	p.set("tensor.lanes.bytes_per_call", bytes, 1)
	p.set("tensor.lanes.gbps", bytes/float64(d), 1)
	p.set("tensor.lanes.gflops", 2*float64(w.Rows*w.Cols*lanes)/float64(d), 1)

	// CSR: the level with the most edges, gathering from every earlier
	// level.
	lv := 1
	for i, level := range gn.Levels {
		if level.Edges() > gn.Levels[lv-1].Edges() {
			lv = i + 1
		}
	}
	level := gn.Levels[lv-1]
	srcs := make([][][]float64, lanes)
	dsts := randomInputs(r, lanes, level.N)
	srcWidth := 0
	seen := map[int]bool{}
	for _, s := range level.SrcLevel {
		if !seen[s] {
			seen[s] = true
			srcWidth += gn.Width(s)
		}
	}
	for k := range srcs {
		srcs[k] = make([][]float64, lv)
		for v := range srcs[k] {
			srcs[k][v] = randomInputs(r, 1, gn.Width(v))[0]
		}
	}
	d = perCall(p.tr, root, "tensor.csr.gather", func() { gn.LevelSumsLanes(lv, dsts, srcs) })
	ne := level.Edges()
	bytes = 8 * float64(4*ne+level.N+1+lanes*(srcWidth+level.N))
	p.set("tensor.csr.bytes_per_call", bytes, 1)
	p.set("tensor.csr.gbps", bytes/float64(d), 1)
	p.set("tensor.csr.gflops", 2*float64(ne*lanes)/float64(d), 1)

	// Activation: one sweep over the dense layer's width.
	src, dst := append([]float64(nil), ys[0]...), make([]float64, w.Rows)
	act := dn.Activation()
	d = perCall(p.tr, root, "activation.eval", func() { activation.Eval(act, dst, src) })
	p.set("activation.eval_ns_per_elem", float64(d)/float64(len(dst)), 1)
	return nil
}

// llcMiB is the last-level cache of the reference host (lscpu: L3
// 300 MiB). The copy probe's two arrays together span rooflineMB,
// 4x that by default, so the copy streams from memory.
const llcMiB = 300

// roofline measures the in-run ceilings the kernel rates are read
// against, on every core at once as the kernels run: copy bandwidth
// between two arrays together rooflineMB in size (bytes read plus
// bytes written, computed from the array sizes), and the scalar
// multiply-add rate. The kernels are built for the default GOAMD64
// level, where a*x+y is not fused and math.FMA goes through a runtime
// feature check, so the ceiling they can reach is that of unfused
// multiply-add chains: eight independent chains per core, two flops
// per step.
func (p *prober) roofline() error {
	root, end := p.replay("roofline")
	defer end()
	n := p.rooflineMB << 20 / 16
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src) // fault every page in before timing
	d := medianOf(p.tr, root, "roofline.copy", 3, func() {
		onEveryCore(func(c, cores int) {
			lo, hi := c*n/cores, (c+1)*n/cores
			copy(dst[lo:hi], src[lo:hi])
		})
	})
	p.set("roofline.copy_gbps", 2*8*float64(n)/float64(d), 3)
	src, dst = nil, nil

	const iters = 1 << 22
	sums := make([]float64, clients())
	d = medianOf(p.tr, root, "roofline.muladd", 3, func() {
		onEveryCore(func(c, _ int) { sums[c] = mulAddChains(iters) })
	})
	floatSink = sums[0]
	p.set("roofline.fma_gflops", float64(clients()*2*8*iters)/float64(d), 3)
	return nil
}

// onEveryCore runs fn(c, cores) on one goroutine per CPU and waits.
func onEveryCore(fn func(c, cores int)) {
	cores := clients()
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, cores)
		}(c)
	}
	wg.Wait()
}

// mulAddChains runs eight independent multiply-add dependency chains,
// held in registers, for iters steps each.
func mulAddChains(iters int) float64 {
	a0, a1, a2, a3, a4, a5, a6, a7 := 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0
	x, y := 0.9999999, 1e-7
	for i := 0; i < iters; i++ {
		a0 = a0*x + y
		a1 = a1*x + y
		a2 = a2*x + y
		a3 = a3*x + y
		a4 = a4*x + y
		a5 = a5*x + y
		a6 = a6*x + y
		a7 = a7*x + y
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// forward times one clean forward pass of a dense, a graph and a conv
// model — the eval route's work.
func (p *prober) forward() error {
	dn, gn, cn, err := p.kernelModels()
	if err != nil {
		return err
	}
	// Prefer the models the eval route serves.
	for _, t := range p.e.tmpls {
		if t.spec.route != "eval" {
			continue
		}
		switch m := t.model.m.(type) {
		case *nn.Network:
			dn = m
		case *graph.Net:
			gn = m
		case *conv.Net:
			cn = m
		}
	}
	root, end := p.replay("forward")
	defer end()
	var sink float64
	for _, c := range []struct {
		name string
		m    nn.Model
	}{{"nn", dn}, {"graph", gn}, {"conv", cn}} {
		sc := nn.NewScratch(c.m)
		xs := randomInputs(rng.New(p.e.seed), evalInputs, c.m.Width(0))
		d := perCall(p.tr, root, c.name+".forward", func() {
			for _, x := range xs {
				sink += nn.ForwardModel(c.m, sc, x)
			}
		})
		p.set(c.name+".forward_us", us(d)/float64(len(xs)), len(xs))
	}
	floatSink = sink
	return nil
}

// dispatch times Pool.ForCtx with an empty body at the Monte Carlo
// job's trial count: the sharding cost every campaign chunk pays.
func (p *prober) dispatch() error {
	trials := 0
	for _, s := range p.e.w.jobs {
		trials = max(trials, s.trials)
	}
	root, end := p.replay("parallel")
	defer end()
	pool := parallel.NewPool(0)
	defer pool.Close()
	ctx := context.Background()
	d := perCall(p.tr, root, "parallel.forctx", func() { pool.ForCtx(ctx, trials, 0, func(lo, hi int) {}) })
	p.set("parallel.forctx_dispatch_us", us(d), 1)
	return nil
}

// jobs reads the job tier's own timestamps off the traced run's job
// records, and times memo hits: finished jobs resubmitted verbatim.
func (p *prober) jobs() error {
	var wait, run, over, ckpt []float64
	for _, j := range p.ph.jobs {
		if !j.ok() {
			continue
		}
		wait = append(wait, ms(j.rec.Started.Sub(j.rec.Created)))
		r := j.rec.Finished.Sub(j.rec.Started)
		run = append(run, ms(r))
		over = append(over, ms(j.end.Sub(j.start)-r))
		ckpt = append(ckpt, float64(j.rec.Checkpoints))
	}
	if len(run) == 0 {
		return fmt.Errorf("no finished job")
	}
	var ckSum float64
	for _, c := range ckpt {
		ckSum += c
	}
	p.set("jobs.queue_wait_ms", quantile(wait, 0.5), len(wait))
	p.set("jobs.run_ms", quantile(run, 0.5), len(run))
	p.set("jobs.overhead_ms", quantile(over, 0.5), len(over))
	p.set("jobs.checkpoints", ckSum/float64(len(ckpt)), len(ckpt))

	root, end := p.replay("memo")
	defer end()
	var hits []float64
	for _, j := range p.ph.jobs {
		if !j.ok() || len(hits) == 10 {
			continue
		}
		var err error
		d := p.tr.timed(root, "http.job_memo_hit", 1, func() {
			var status int
			var body []byte
			status, body, err = p.e.post("/v1/jobs", j.submit)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("resubmit: status %d: %s", status, truncate(body))
			}
			var rec struct {
				ID       string `json:"id"`
				Memoized bool   `json:"memoized"`
			}
			if err == nil {
				err = json.Unmarshal(body, &rec)
			}
			if err == nil && !rec.Memoized {
				err = fmt.Errorf("resubmitted job %s was not memoized", j.rec.ID)
			}
			if err == nil {
				status, _, err = p.e.do(http.MethodGet, "/v1/jobs/"+rec.ID+"/result", nil)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("memoized result: status %d", status)
				}
			}
		})
		if err != nil {
			return err
		}
		hits = append(hits, ms(d))
	}
	p.set("jobs.memo_hit_ms", quantile(hits, 0.5), len(hits))
	return nil
}

// store measures the artifact store under the state the run left: the
// manifest size, an artifact Put (which rewrites the manifest) and a
// job checkpoint write.
func (p *prober) store() error {
	fi, err := os.Stat(filepath.Join(p.e.dir, "manifest.json"))
	if err != nil {
		return err
	}
	p.set("store.manifest_kb", float64(fi.Size())/1024, 1)
	root, end := p.replay("store")
	defer end()
	payload := randomInputs(rng.New(p.e.seed), 1, 64)[0]
	const n = 20
	puts, ckpts := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		doc := map[string]any{"probe": i, "errs": payload}
		puts[i] = float64(p.tr.timed(root, "store.put", 1, func() { _, err = p.e.st.Put("perfbench", doc, nil) }))
		if err != nil {
			return err
		}
		id := fmt.Sprintf("%032x", uint64(i)+1)
		ckpts[i] = float64(p.tr.timed(root, "store.checkpoint", 1, func() {
			err = p.e.st.PutJobCheckpoint(id, map[string]any{"completed": len(payload), "errs": payload})
		}))
		if err != nil {
			return err
		}
		if err := p.e.st.DeleteJobCheckpoint(id); err != nil {
			return err
		}
	}
	p.set("store.put_us", quantile(puts, 0.5)/1e3, n)
	p.set("store.checkpoint_us", quantile(ckpts, 0.5)/1e3, n)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
