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
	"repro/internal/jobs"
	"repro/internal/nn"
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

// writeJSON writes v as the compact JSON response body. Stored
// artifacts stay indented: the store encodes them itself.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the client is gone if this fails
}

// errorResponse is the service's uniform error envelope. State is set
// only on a result request for a job that has none yet.
type errorResponse struct {
	Error string     `json:"error"`
	State jobs.State `json:"state,omitempty"`
}

// writeError writes the error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// fail maps an error to its HTTP response.
func fail(w http.ResponseWriter, err error) {
	if he, ok := err.(*httpError); ok {
		writeError(w, he.status, he.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

// readBody reads the request body: a body exceeding the route's limit
// is 413, any other read failure 400.
func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return nil, badRequest(fmt.Sprintf("reading body: %v", err))
	}
	return data, nil
}

// decode parses the request body strictly: unknown fields, trailing
// data and type mismatches are client errors.
func decode(r *http.Request, v any) error {
	data, err := readBody(r)
	if err != nil {
		return err
	}
	if err := nn.StrictUnmarshal(data, v); err != nil {
		return badRequest(err.Error())
	}
	return nil
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

type healthResponse struct {
	Status         string  `json:"status"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	CachedNetworks int     `json:"cached_networks"`
	// StoredNetworks is -1 without a store.
	StoredNetworks int         `json:"stored_networks"`
	Workers        int         `json:"workers"`
	Jobs           *jobs.Stats `json:"jobs,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:         "ok",
		UptimeSeconds:  time.Since(s.start).Seconds(),
		CachedNetworks: s.cachedNetworks(),
		StoredNetworks: -1,
		Workers:        s.pool.Size(),
	}
	if s.st != nil {
		resp.StoredNetworks = len(s.st.Models())
	}
	if s.jobs != nil {
		st := s.jobs.Stats()
		resp.Jobs = &st
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
	writeJSON(w, http.StatusOK, struct {
		Networks []networkInfo `json:"networks"`
	}{infos})
}

// ---- POST /v1/networks ----

func (s *Server) handleUploadNetwork(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		writeError(w, http.StatusServiceUnavailable, "no artifact store configured")
		return
	}
	data, err := readBody(r)
	if err != nil {
		fail(w, err)
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
	writeJSON(w, http.StatusCreated, uploadResponse{
		ID:      entry.ID,
		ShortID: store.ShortID(entry.ID),
		Arch:    conv.ArchOf(m),
		Layers:  m.NumLayers(),
		Widths:  core.ShapeOfModel(m).Widths,
	})
}

type uploadResponse struct {
	ID      string `json:"id"`
	ShortID string `json:"short_id"`
	Arch    string `json:"arch"`
	Layers  int    `json:"layers"`
	Widths  []int  `json:"widths"`
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

// lookupModel resolves a fault-model name, fault.DefaultModel when
// unset.
func lookupModel(name string) (fault.Model, error) {
	if name == "" {
		name = fault.DefaultModel
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
		Bits:  orDefault(bits, d.Bits),
		Bit:   orDefault(bit, d.Bit),
	}
}

func orDefault[T any](p *T, def T) T {
	if p != nil {
		return *p
	}
	return def
}

// The query kinds eval, bounds and inject follow; montecarlo.go and
// worstcase.go hold the two long-running kinds, jobs.go experiments.
// Each kind's resolver applies its defaults and runs every check its
// compute relies on (see query.go).

// ---- POST /v1/eval ----

type evalRequest struct {
	netRef
	Inputs [][]float64 `json:"inputs"`
}

// evalQuery is a validated eval request.
type evalQuery struct {
	ref    netRef
	cn     *cachedNet
	inputs [][]float64
}

func (s *Server) resolveEval(req evalRequest) (evalQuery, error) {
	cn, err := s.network(req.netRef)
	if err != nil {
		return evalQuery{}, err
	}
	if len(req.Inputs) == 0 {
		return evalQuery{}, badRequest("inputs is empty")
	}
	if err := checkInputs(cn, req.Inputs); err != nil {
		return evalQuery{}, err
	}
	return evalQuery{ref: req.netRef, cn: cn, inputs: req.Inputs}, nil
}

func (q evalQuery) memo() any {
	return struct {
		Net    string      `json:"net"`
		Inputs [][]float64 `json:"inputs"`
	}{netMemoKey(q.ref, q.cn), q.inputs}
}

// evalResponse fields are in sorted key order (see query.go).
type evalResponse struct {
	Count     int       `json:"count"`
	NetworkID string    `json:"network_id"`
	Outputs   []float64 `json:"outputs"`
}

func (q evalQuery) compute(*Server, queryRun) (any, error) {
	outputs := nn.ForwardBatchModel(q.cn.model, q.inputs)
	return evalResponse{Count: len(outputs), NetworkID: q.cn.id, Outputs: outputs}, nil
}

// ---- POST /v1/bounds ----

type boundsRequest struct {
	netRef
	Faults   faultSpec `json:"faults,omitempty"`
	C        *float64  `json:"c,omitempty"`
	Eps      float64   `json:"eps,omitempty"`
	EpsPrime float64   `json:"eps_prime,omitempty"`
}

// boundsResponse is the one result document whose fields are not in
// sorted key order: it has been a struct from the start, and its
// stored bytes follow this declaration order.
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

// boundsQuery is a validated bounds request.
type boundsQuery struct {
	ref           netRef
	cn            *cachedNet
	faults        []int
	c             float64
	eps, epsPrime float64
}

func (s *Server) resolveBounds(req boundsRequest) (boundsQuery, error) {
	cn, err := s.network(req.netRef)
	if err != nil {
		return boundsQuery{}, err
	}
	faults, err := req.Faults.resolve(cn.shape.Widths)
	if err != nil {
		return boundsQuery{}, err
	}
	if err := checkCap(req.C); err != nil {
		return boundsQuery{}, err
	}
	return boundsQuery{ref: req.netRef, cn: cn, faults: faults, c: orDefault(req.C, fault.DefaultParams.C),
		eps: req.Eps, epsPrime: req.EpsPrime}, nil
}

func (q boundsQuery) memo() any {
	return struct {
		Net      string  `json:"net"`
		Faults   []int   `json:"faults"`
		C        float64 `json:"c"`
		Eps      float64 `json:"eps"`
		EpsPrime float64 `json:"eps_prime"`
	}{netMemoKey(q.ref, q.cn), q.faults, q.c, q.eps, q.epsPrime}
}

func (q boundsQuery) compute(*Server, queryRun) (any, error) {
	cn, faults, c := q.cn, q.faults, q.c
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
	if q.eps > 0 {
		tol := b.cert.Tolerates(faults, c, q.eps, q.epsPrime)
		crashTol := b.cert.CrashTolerates(faults, q.eps, q.epsPrime)
		resp.Tolerated = &tol
		resp.CrashTolerated = &crashTol
		resp.RequiredSignals = append([]int(nil), b.cert.RequiredSignals(faults)...)
	}
	cn.putBounds(b)
	return resp, nil
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

// injectQuery is a validated inject request: defaults applied, faults
// resolved against the layer widths, the injector built.
type injectQuery struct {
	ref         netRef
	cn          *cachedNet
	model       fault.Model
	faults      []int
	adversarial bool
	seed        uint64
	params      fault.Params
	inj         fault.Injector
}

func (s *Server) resolveInject(req injectRequest) (injectQuery, error) {
	var q injectQuery
	model, err := lookupModel(req.Model)
	if err != nil {
		return q, err
	}
	cn, err := s.network(req.netRef)
	if err != nil {
		return q, err
	}
	faults, err := req.Faults.resolve(cn.shape.Widths)
	if err != nil {
		return q, err
	}
	if err := checkCap(req.C); err != nil {
		return q, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = fault.DefaultSeed
	}
	params := faultParams(req.C, req.Value, req.Prob, req.Bits, req.Bit).Seeded(cn.model, seed)
	inj, err := model.New(params)
	if err != nil {
		return q, badRequest(err.Error())
	}
	return injectQuery{ref: req.netRef, cn: cn, model: model, faults: faults,
		adversarial: req.Adversarial == nil || *req.Adversarial,
		seed:        seed, params: params, inj: inj}, nil
}

func (q injectQuery) memo() any {
	p := q.params
	return struct {
		Net         string  `json:"net"`
		Faults      []int   `json:"faults"`
		Model       string  `json:"model"`
		Adversarial bool    `json:"adversarial"`
		Seed        uint64  `json:"seed"`
		C           float64 `json:"c"`
		Value       float64 `json:"value"`
		Prob        float64 `json:"prob"`
		Bits        int     `json:"bits"`
		Bit         int     `json:"bit"`
	}{netMemoKey(q.ref, q.cn), q.faults, q.model.Name, q.adversarial, q.seed,
		p.C, p.Value, p.Prob, p.Bits, p.Bit}
}

// injectResponse fields are in sorted key order (see query.go).
type injectResponse struct {
	Adversarial   bool    `json:"adversarial"`
	Bound         float64 `json:"bound"`
	Deterministic bool    `json:"deterministic"`
	DeviationCap  float64 `json:"deviation_cap"`
	Faults        []int   `json:"faults"`
	Inputs        int     `json:"inputs"`
	Measured      float64 `json:"measured"`
	Model         string  `json:"model"`
	NetworkID     string  `json:"network_id"`
	// Utilization is measured/bound, present whenever bound > 0.
	Utilization *float64 `json:"utilization,omitempty"`
}

func (q injectQuery) compute(*Server, queryRun) (any, error) {
	cn, model, faults := q.cn, q.model, q.faults
	var cp *fault.CompiledPlan
	if q.adversarial {
		cp = cn.adversarialPlan(faults)
	} else {
		cp = fault.Compile(cn.model, fault.RandomNeuronPlan(rng.New(q.seed), cn.model, faults))
	}
	inputs, traces := cn.standardInputs()
	measured := cp.MaxErrorOnTraces(q.inj, traces, model.Deterministic)
	dev := model.NeuronDeviation(q.params, cn.shape)
	b := cn.getBounds()
	bound := b.cert.Fep(faults, dev)
	cn.putBounds(b)
	if measured > bound*(1+1e-9) {
		// A violated bound is a bug in the engine, never a valid answer.
		return nil, &httpError{status: http.StatusInternalServerError,
			msg: fmt.Sprintf("bound violated: measured %g > bound %g", measured, bound)}
	}
	return injectResponse{
		Adversarial:   q.adversarial,
		Bound:         bound,
		Deterministic: model.Deterministic,
		DeviationCap:  dev,
		Faults:        faults,
		Inputs:        len(inputs),
		Measured:      measured,
		Model:         model.Name,
		NetworkID:     cn.id,
		Utilization:   ratio(measured, bound),
	}, nil
}

// ratio returns x/bound, nil when bound is not positive: a response
// carries the ratio only against a positive bound, and then always,
// a zero ratio included.
func ratio(x, bound float64) *float64 {
	if bound > 0 {
		r := x / bound
		return &r
	}
	return nil
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
	writeJSON(w, http.StatusCreated, quantizeResponse{
		ID:                qe.ID,
		ShortID:           store.ShortID(qe.ID),
		NetworkID:         entry.ID,
		Options:           q.Opts,
		Bound:             q.Bound(),
		MemoryBits:        q.MemoryBits(),
		FullPrecisionBits: quant.FullPrecisionBits(q.Original),
	})
}

type quantizeResponse struct {
	ID                string        `json:"id"`
	ShortID           string        `json:"short_id"`
	NetworkID         string        `json:"network_id"`
	Options           quant.Options `json:"options"`
	Bound             float64       `json:"bound"`
	MemoryBits        int           `json:"memory_bits"`
	FullPrecisionBits int           `json:"full_precision_bits"`
}
