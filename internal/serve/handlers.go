package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/store"
)

// httpError carries a status code with a client-facing message.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(msg string) *httpError { return &httpError{status: http.StatusBadRequest, msg: msg} }

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // the client is gone if this fails
}

// writeError writes the service's uniform error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// fail maps an error to its HTTP response.
func fail(w http.ResponseWriter, err error) {
	if he, ok := err.(*httpError); ok {
		writeError(w, he.status, he.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

// decode parses the request body strictly: unknown fields, trailing
// data and type mismatches are client errors; a body exceeding the
// route's limit is 413.
func decode(r *http.Request, v any) error {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return badRequest(fmt.Sprintf("reading body: %v", err))
	}
	if err := strictUnmarshal(data, v); err != nil {
		return badRequest(err.Error())
	}
	return nil
}

// strictUnmarshal rejects unknown fields and trailing garbage.
func strictUnmarshal(data []byte, v any) error {
	return nn.StrictUnmarshal(data, v)
}

// netRef selects the network a query runs against: a store ID (cached
// across requests) or an inline network document.
type netRef struct {
	NetworkID string          `json:"network_id,omitempty"`
	Network   json.RawMessage `json:"network,omitempty"`
}

// faultSpec accepts a per-layer fault distribution as either a single
// integer (broadcast uniformly, the CLI convention) or an explicit
// array.
type faultSpec struct {
	perLayer []int
	uniform  int
	isUnif   bool
	set      bool
}

func (f *faultSpec) UnmarshalJSON(b []byte) error {
	f.set = true
	var u int
	if err := json.Unmarshal(b, &u); err == nil {
		f.uniform, f.isUnif = u, true
		return nil
	}
	var arr []int
	if err := json.Unmarshal(b, &arr); err == nil {
		f.perLayer = arr
		return nil
	}
	return fmt.Errorf("faults must be an integer or an array of per-layer integers")
}

// resolve validates the spec against the layer widths. Defaults to one
// fault per layer when the field was omitted.
func (f *faultSpec) resolve(widths []int) ([]int, error) {
	out := make([]int, len(widths))
	switch {
	case !f.set:
		for i := range out {
			out[i] = 1
		}
	case f.isUnif:
		for i := range out {
			out[i] = f.uniform
		}
	default:
		if len(f.perLayer) != len(widths) {
			return nil, badRequest(fmt.Sprintf("faults has %d entries for %d layers", len(f.perLayer), len(widths)))
		}
		copy(out, f.perLayer)
	}
	for l, v := range out {
		if v < 0 {
			return nil, badRequest(fmt.Sprintf("faults[%d] = %d is negative", l, v))
		}
		if v > widths[l] {
			return nil, badRequest(fmt.Sprintf("faults[%d] = %d exceeds layer width %d", l, v, widths[l]))
		}
	}
	return out, nil
}

// ---- GET /healthz ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	stored := -1
	if s.st != nil {
		stored = len(s.st.Models())
	}
	resp := map[string]any{
		"status":          "ok",
		"uptime_seconds":  time.Since(s.start).Seconds(),
		"cached_networks": s.cachedNetworks(),
		"stored_networks": stored,
		"workers":         s.pool.Size(),
	}
	if s.jobs != nil {
		resp["jobs"] = s.jobs.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- GET /v1/networks ----

type networkInfo struct {
	ID      string            `json:"id"`
	ShortID string            `json:"short_id"`
	Kind    string            `json:"kind"`
	Arch    string            `json:"arch"`
	Created time.Time         `json:"created"`
	Bytes   int               `json:"bytes"`
	Meta    map[string]string `json:"meta,omitempty"`
}

func (s *Server) handleListNetworks(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		writeError(w, http.StatusServiceUnavailable, "no artifact store configured")
		return
	}
	entries := s.st.Models()
	infos := make([]networkInfo, 0, len(entries))
	for _, e := range entries {
		arch := e.Meta["arch"]
		if arch == "" {
			arch = "dense"
		}
		infos = append(infos, networkInfo{
			ID: e.ID, ShortID: store.ShortID(e.ID), Kind: e.Kind, Arch: arch,
			Created: e.Created, Bytes: e.Bytes, Meta: e.Meta,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"networks": infos})
}

// ---- POST /v1/networks ----

func (s *Server) handleUploadNetwork(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		writeError(w, http.StatusServiceUnavailable, "no artifact store configured")
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	// Any model document is accepted: untagged dense networks and
	// "arch"-tagged conv1d/conv2d/graph nets, stored under their own
	// kinds.
	m, err := conv.ParseModel(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("network document: %v", err))
		return
	}
	entry, err := s.st.PutModel(m, map[string]string{"source": "upload"})
	if err != nil {
		fail(w, err)
		return
	}
	// Seed the cache with the parsed model. A model the cache rejects is
	// still stored: its queries answer the 422 storedNetwork gives.
	_, _ = s.cacheNetwork(entry.ID, m)
	shape := core.ShapeOfModel(m)
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":       entry.ID,
		"short_id": store.ShortID(entry.ID),
		"arch":     conv.ArchOf(m),
		"layers":   m.NumLayers(),
		"widths":   shape.Widths,
	})
}

// checkInputs rejects an input sample of the wrong dimension for cn.
func checkInputs(cn *cachedNet, inputs [][]float64) error {
	for i, x := range inputs {
		if len(x) != cn.model.Width(0) {
			return badRequest(fmt.Sprintf("inputs[%d] has dimension %d, want %d", i, len(x), cn.model.Width(0)))
		}
	}
	return nil
}

// checkCap rejects a negative capacity at resolve time rather than
// leaving it to the fault-model constructor: models that ignore C
// (crash, stuck, ...) would otherwise carry the negative cap into the
// Fep computation, which panics on it.
func checkCap(c *float64) error {
	if c != nil && *c < 0 {
		return badRequest("c is negative")
	}
	return nil
}

// lookupModel resolves a fault-model name, "crash" when unset.
func lookupModel(name string) (fault.Model, error) {
	if name == "" {
		name = "crash"
	}
	model, ok := fault.Lookup(name)
	if !ok {
		return model, badRequest(fmt.Sprintf("unknown fault model %q; registered models: %s",
			name, strings.Join(fault.ModelNames(), ", ")))
	}
	return model, nil
}

// faultParams fills a request's fault-model parameters, taking
// fault.DefaultParams for every field left unset.
func faultParams(c, value, prob *float64, bits, bit *int) fault.Params {
	d := fault.DefaultParams
	return fault.Params{
		C:     orDefault(c, d.C),
		Sem:   d.Sem,
		Value: orDefault(value, d.Value),
		Prob:  orDefault(prob, d.Prob),
		Bits:  orDefaultInt(bits, d.Bits),
		Bit:   orDefaultInt(bit, d.Bit),
	}
}

func orDefault(p *float64, def float64) float64 {
	if p != nil {
		return *p
	}
	return def
}

func orDefaultInt(p *int, def int) int {
	if p != nil {
		return *p
	}
	return def
}

// Every query kind below has one resolver: it applies the kind's
// defaults and runs every check its compute path relies on, and the
// synchronous handler, the job tier's submit-time validation (which
// hashes the resolved values into the memo key) and the job executor
// all go through it — a request the route rejects is rejected at
// submit, never accepted and failed later.

// ---- POST /v1/eval ----

type evalRequest struct {
	netRef
	Inputs [][]float64 `json:"inputs"`
}

// evalResolved is a validated eval request.
type evalResolved struct {
	cn     *cachedNet
	inputs [][]float64
}

func (s *Server) resolveEval(req evalRequest) (evalResolved, error) {
	cn, err := s.network(req.netRef)
	if err != nil {
		return evalResolved{}, err
	}
	if len(req.Inputs) == 0 {
		return evalResolved{}, badRequest("inputs is empty")
	}
	if err := checkInputs(cn, req.Inputs); err != nil {
		return evalResolved{}, err
	}
	return evalResolved{cn: cn, inputs: req.Inputs}, nil
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req evalRequest
	if err := decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	ev, err := s.resolveEval(req)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, computeEval(ev))
}

// computeEval is the transport-free eval path, shared by the
// synchronous handler and the async job tier.
func computeEval(ev evalResolved) map[string]any {
	outputs := nn.ForwardBatchModel(ev.cn.model, ev.inputs)
	return map[string]any{
		"network_id": ev.cn.id,
		"count":      len(outputs),
		"outputs":    outputs,
	}
}

// ---- POST /v1/bounds ----

type boundsRequest struct {
	netRef
	Faults   faultSpec `json:"faults,omitempty"`
	C        *float64  `json:"c,omitempty"`
	Eps      float64   `json:"eps,omitempty"`
	EpsPrime float64   `json:"eps_prime,omitempty"`
}

type boundsResponse struct {
	NetworkID  string    `json:"network_id,omitempty"`
	Arch       string    `json:"arch"`
	Widths     []int     `json:"widths"`
	MaxWeights []float64 `json:"max_weights"`
	K          float64   `json:"k"`
	Faults     []int     `json:"faults"`
	C          float64   `json:"c"`
	Fep        float64   `json:"fep"`
	CrashFep   float64   `json:"crash_fep"`
	SynapseFep float64   `json:"synapse_fep"`
	// Tolerance certificates, present when eps > 0.
	Tolerated       *bool `json:"tolerated,omitempty"`
	CrashTolerated  *bool `json:"crash_tolerated,omitempty"`
	RequiredSignals []int `json:"required_signals,omitempty"`
}

// boundsResolved is a validated bounds request.
type boundsResolved struct {
	cn            *cachedNet
	faults        []int
	c             float64
	eps, epsPrime float64
}

func (s *Server) resolveBounds(req boundsRequest) (boundsResolved, error) {
	cn, err := s.network(req.netRef)
	if err != nil {
		return boundsResolved{}, err
	}
	faults, err := req.Faults.resolve(cn.shape.Widths)
	if err != nil {
		return boundsResolved{}, err
	}
	if err := checkCap(req.C); err != nil {
		return boundsResolved{}, err
	}
	return boundsResolved{cn: cn, faults: faults, c: orDefault(req.C, fault.DefaultParams.C),
		eps: req.Eps, epsPrime: req.EpsPrime}, nil
}

func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) {
	var req boundsRequest
	if err := decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	br, err := s.resolveBounds(req)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, computeBounds(br))
}

// computeBounds is the transport-free bounds path, shared by the
// synchronous handler and the async job tier.
func computeBounds(br boundsResolved) boundsResponse {
	cn, faults, c := br.cn, br.faults, br.c
	// The certificate computations run on pooled per-network scratch:
	// zero allocations in the steady state (see BenchmarkBoundsCompute).
	b := cn.getBounds()
	resp := boundsResponse{
		NetworkID:  cn.id,
		Arch:       conv.ArchOf(cn.model),
		Widths:     cn.shape.Widths,
		MaxWeights: cn.shape.MaxW,
		K:          cn.shape.K,
		Faults:     faults,
		C:          c,
		Fep:        b.cert.Fep(faults, c),
		CrashFep:   b.cert.CrashFep(faults),
		SynapseFep: b.cert.SynapseFep(core.SynapseFaults(b.cert, b.synFaults, faults), c),
	}
	if br.eps > 0 {
		tol := b.cert.Tolerates(faults, c, br.eps, br.epsPrime)
		crashTol := b.cert.CrashTolerates(faults, br.eps, br.epsPrime)
		resp.Tolerated = &tol
		resp.CrashTolerated = &crashTol
		resp.RequiredSignals = append([]int(nil), b.cert.RequiredSignals(faults)...)
	}
	cn.putBounds(b)
	return resp
}

// ---- POST /v1/inject ----

type injectRequest struct {
	netRef
	Faults      faultSpec `json:"faults,omitempty"`
	Model       string    `json:"model,omitempty"`
	Adversarial *bool     `json:"adversarial,omitempty"`
	Seed        uint64    `json:"seed,omitempty"`
	C           *float64  `json:"c,omitempty"`
	Value       *float64  `json:"value,omitempty"`
	Prob        *float64  `json:"prob,omitempty"`
	Bits        *int      `json:"bits,omitempty"`
	Bit         *int      `json:"bit,omitempty"`
}

// injectResolved is a validated inject request: defaults applied,
// faults resolved against the layer widths, the injector built.
type injectResolved struct {
	cn          *cachedNet
	model       fault.Model
	faults      []int
	adversarial bool
	seed        uint64
	params      fault.Params
	inj         fault.Injector
}

func (s *Server) resolveInject(req injectRequest) (injectResolved, error) {
	var ir injectResolved
	model, err := lookupModel(req.Model)
	if err != nil {
		return ir, err
	}
	cn, err := s.network(req.netRef)
	if err != nil {
		return ir, err
	}
	faults, err := req.Faults.resolve(cn.shape.Widths)
	if err != nil {
		return ir, err
	}
	if err := checkCap(req.C); err != nil {
		return ir, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = fault.DefaultSeed
	}
	params := faultParams(req.C, req.Value, req.Prob, req.Bits, req.Bit).Seeded(cn.model, seed)
	inj, err := model.New(params)
	if err != nil {
		return ir, badRequest(err.Error())
	}
	return injectResolved{cn: cn, model: model, faults: faults,
		adversarial: req.Adversarial == nil || *req.Adversarial,
		seed:        seed, params: params, inj: inj}, nil
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	var req injectRequest
	if err := decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	ir, err := s.resolveInject(req)
	if err != nil {
		fail(w, err)
		return
	}
	resp, err := computeInject(ir)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// computeInject is the transport-free inject path, shared by the
// synchronous handler and the async job tier.
func computeInject(ir injectResolved) (map[string]any, error) {
	cn, model, faults, inj := ir.cn, ir.model, ir.faults, ir.inj
	var cp *fault.CompiledPlan
	if ir.adversarial {
		cp = cn.adversarialPlan(faults)
	} else {
		cp = fault.Compile(cn.model, fault.RandomNeuronPlan(rng.New(ir.seed), cn.model, faults))
	}
	inputs, traces := cn.standardInputs()
	var measured float64
	if model.Deterministic {
		measured = parallel.MaxFloat64(len(traces), func(i int) float64 {
			return cp.ErrorOnTrace(inj, traces[i])
		})
	} else {
		for _, tr := range traces {
			if e := cp.ErrorOnTrace(inj, tr); e > measured {
				measured = e
			}
		}
	}
	dev := model.NeuronDeviation(ir.params, cn.shape)
	b := cn.getBounds()
	bound := b.cert.Fep(faults, dev)
	cn.putBounds(b)
	resp := map[string]any{
		"network_id":    cn.id,
		"model":         model.Name,
		"deterministic": model.Deterministic,
		"adversarial":   ir.adversarial,
		"faults":        faults,
		"deviation_cap": dev,
		"inputs":        len(inputs),
		"measured":      measured,
		"bound":         bound,
	}
	if bound > 0 {
		resp["utilization"] = measured / bound
	}
	if measured > bound*(1+1e-9) {
		// A violated bound is a bug in the engine, never a valid answer.
		return nil, &httpError{status: http.StatusInternalServerError,
			msg: fmt.Sprintf("bound violated: measured %g > bound %g", measured, bound)}
	}
	return resp, nil
}

// ---- POST /v1/quantize ----

type quantizeRequest struct {
	NetworkID    string `json:"network_id"`
	Bits         int    `json:"bits,omitempty"`
	ActBits      int    `json:"act_bits,omitempty"`
	PerLayerBits []int  `json:"per_layer_bits,omitempty"`
}

// handleQuantize builds a fixed-point implementation of a stored dense
// network and persists the {network_id, options} recipe as a content-
// addressed "quantized" artifact — quantisation is deterministic, so
// the recipe reconstructs the quantised weights and the Theorem 5
// certificate exactly without duplicating the parameter payload.
func (s *Server) handleQuantize(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		writeError(w, http.StatusServiceUnavailable, "no artifact store configured")
		return
	}
	var req quantizeRequest
	if err := decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	if req.NetworkID == "" {
		fail(w, badRequest("missing network_id (quantize persists a recipe, so the network must be stored)"))
		return
	}
	entry, err := s.st.Resolve(req.NetworkID)
	if err != nil {
		fail(w, &httpError{status: 404, msg: err.Error()})
		return
	}
	if entry.Kind != store.KindNetwork {
		fail(w, &httpError{status: 422, msg: fmt.Sprintf(
			"artifact %s is a %q: quantisation certificates (Theorem 5) are defined for dense networks",
			store.ShortID(entry.ID), entry.Kind)})
		return
	}
	opts := quant.Options{WeightBits: req.Bits, ActBits: req.ActBits, PerLayerBits: req.PerLayerBits}
	if opts.WeightBits == 0 && opts.PerLayerBits == nil {
		opts.WeightBits = 8
	}
	// One load and one quantisation serve both the validation and the
	// response; the persisted recipe reconstructs the same Quantized
	// deterministically. Option errors are the client's (400), store
	// write failures are ours (500).
	net, _, err := s.st.Network(entry.ID)
	if err != nil {
		fail(w, &httpError{status: 404, msg: err.Error()})
		return
	}
	q, err := quant.Quantize(net, opts)
	if err != nil {
		fail(w, badRequest(err.Error()))
		return
	}
	qe, err := s.st.Put(store.KindQuantized, store.QuantRecipe{NetworkID: entry.ID, Options: opts},
		map[string]string{"source": "quantize"})
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":                  qe.ID,
		"short_id":            store.ShortID(qe.ID),
		"network_id":          entry.ID,
		"options":             q.Opts,
		"bound":               q.Bound(),
		"memory_bits":         q.MemoryBits(),
		"full_precision_bits": quant.FullPrecisionBits(q.Original),
	})
}

// ---- POST /v1/montecarlo ----

type monteCarloRequest struct {
	netRef
	Faults faultSpec   `json:"faults,omitempty"`
	C      float64     `json:"c,omitempty"`
	Trials int         `json:"trials,omitempty"`
	Seed   uint64      `json:"seed,omitempty"`
	Inputs [][]float64 `json:"inputs,omitempty"`
}

// maxTrials bounds one Monte Carlo request; larger campaigns should be
// split (and their seeds varied) by the client.
const maxTrials = 200000

// statusClientClosedRequest is nginx's convention for "the client went
// away before the response"; no standard library constant exists.
const statusClientClosedRequest = 499

// mcResolved is a validated Monte Carlo campaign: defaults applied,
// faults resolved against the layer widths, inputs checked against the
// input width. Its scalar fields (plus the network identity and inputs)
// are exactly what determines the result — the memo key hashes them.
// Validation traces nothing: the inputs' clean traces are computed by
// whoever runs the campaign (cleanTraces).
type mcResolved struct {
	cn     *cachedNet
	faults []int
	c      float64
	trials int
	seed   uint64
	// inputs are the request's own inputs, nil for the network's
	// standard sample.
	inputs [][]float64
}

// cleanTraces returns the campaign inputs' clean traces: the network's
// cached standard traces, or the request's inputs traced now.
func (mc mcResolved) cleanTraces() []*nn.Trace {
	if mc.inputs == nil {
		_, traces := mc.cn.standardInputs()
		return traces
	}
	return fault.CleanTraces(mc.cn.model, mc.inputs)
}

// resolveMonteCarlo validates a campaign request, applying the same
// defaults for the synchronous path, the job tier and the memo key.
func (s *Server) resolveMonteCarlo(req monteCarloRequest) (mcResolved, error) {
	var mc mcResolved
	cn, err := s.network(req.netRef)
	if err != nil {
		return mc, err
	}
	faults, err := req.Faults.resolve(cn.shape.Widths)
	if err != nil {
		return mc, err
	}
	if err := checkCap(&req.C); err != nil {
		return mc, err
	}
	trials := req.Trials
	if trials == 0 {
		trials = 500
	}
	if trials < 1 || trials > maxTrials {
		return mc, badRequest(fmt.Sprintf("trials %d outside [1, %d]", trials, maxTrials))
	}
	seed := req.Seed
	if seed == 0 {
		seed = 9
	}
	var inputs [][]float64
	if len(req.Inputs) > 0 {
		if err := checkInputs(cn, req.Inputs); err != nil {
			return mc, err
		}
		inputs = req.Inputs
	}
	return mcResolved{cn: cn, faults: faults, c: req.C, trials: trials, seed: seed, inputs: inputs}, nil
}

// mcResponse compares a completed profile against the matching
// closed-form bound and assembles the response document.
func mcResponse(mc mcResolved, prof fault.Profile) map[string]any {
	b := mc.cn.getBounds()
	var bound float64
	if mc.c == 0 {
		bound = b.cert.CrashFep(mc.faults)
	} else {
		bound = b.cert.Fep(mc.faults, mc.c)
	}
	mc.cn.putBounds(b)
	resp := map[string]any{
		"network_id": mc.cn.id,
		"faults":     mc.faults,
		"c":          mc.c,
		"trials":     prof.Trials,
		"mean":       prof.Stats.Mean,
		"median":     prof.Stats.Median,
		"q90":        prof.Q90,
		"q99":        prof.Q99,
		"max":        prof.Stats.Max,
		"bound":      bound,
	}
	if bound > 0 {
		resp["max_vs_bound"] = prof.Stats.Max / bound
	}
	return resp
}

func (s *Server) handleMonteCarlo(w http.ResponseWriter, r *http.Request) {
	var req monteCarloRequest
	if err := decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	mc, err := s.resolveMonteCarlo(req)
	if err != nil {
		fail(w, err)
		return
	}
	prof, err := s.shardedMonteCarlo(r.Context(), mc.cn, mc.faults, mc.c, mc.cleanTraces(), mc.trials, mc.seed)
	if err != nil {
		// The client is gone or the server is draining: there is nobody
		// to answer, and the partial profile would be wrong anyway.
		writeError(w, statusClientClosedRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, mcResponse(mc, prof))
}
