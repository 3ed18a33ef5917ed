package serve

import (
	"fmt"
	"net/http"

	"repro/internal/fault"
)

// ---- POST /v1/worstcase ----

type worstCaseRequest struct {
	netRef
	Faults     faultSpec   `json:"faults,omitempty"`
	Model      string      `json:"model,omitempty"`
	C          *float64    `json:"c,omitempty"`
	Value      *float64    `json:"value,omitempty"`
	Bits       *int        `json:"bits,omitempty"`
	Bit        *int        `json:"bit,omitempty"`
	Inputs     [][]float64 `json:"inputs,omitempty"`
	MaxConfigs int64       `json:"max_configs,omitempty"`
}

// wcQuery is a validated exhaustive-certification request: defaults
// applied, faults resolved against the layer widths, the injector
// built. Its scalar fields plus the network identity and inputs are
// exactly what determines the result — the job memo key hashes them
// (max_configs is a guard, not an input, and is excluded).
type wcQuery struct {
	ref    netRef
	cn     *cachedNet
	model  fault.Model
	faults []int
	params fault.Params
	inj    fault.Injector
	// inputs are the request's own inputs, nil for the network's
	// standard sample.
	inputs [][]float64
}

// resolveWorstCase rejects stochastic models: an exhaustive sweep
// certifies a worst case only when every configuration's error is a
// deterministic function of the configuration — randomised deviations
// are a profile, not a certificate, and belong to /v1/montecarlo.
func (s *Server) resolveWorstCase(req worstCaseRequest) (wcQuery, error) {
	var q wcQuery
	model, err := lookupModel(req.Model)
	if err != nil {
		return q, err
	}
	if !model.Deterministic {
		return q, badRequest(fmt.Sprintf("fault model %q is stochastic; exhaustive worst-case search needs a deterministic model — profile stochastic models with /v1/montecarlo", model.Name))
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
	params := faultParams(req.C, req.Value, nil, req.Bits, req.Bit)
	params.Net = cn.model
	inj, err := model.New(params)
	if err != nil {
		return q, badRequest(err.Error())
	}
	if req.MaxConfigs < 0 {
		return q, badRequest("max_configs is negative")
	}
	limit := req.MaxConfigs
	if limit == 0 || limit > fault.MaxWorstCaseConfigs {
		limit = fault.MaxWorstCaseConfigs
	}
	total, err := fault.CountConfigurations(cn.shape.Widths, faults)
	if err != nil {
		return q, badRequest(err.Error())
	}
	if total > limit {
		return q, badRequest(fmt.Sprintf("%d configurations exceed limit %d (cap %d); lower the fault counts", total, limit, fault.MaxWorstCaseConfigs))
	}
	var inputs [][]float64
	if len(req.Inputs) > 0 {
		if err := checkInputs(cn, req.Inputs); err != nil {
			return q, err
		}
		inputs = req.Inputs
	}
	return wcQuery{ref: req.netRef, cn: cn, model: model, faults: faults, params: params, inj: inj, inputs: inputs}, nil
}

func (q wcQuery) memo() any {
	return struct {
		Net    string      `json:"net"`
		Faults []int       `json:"faults"`
		Model  string      `json:"model"`
		C      float64     `json:"c"`
		Value  float64     `json:"value"`
		Bits   int         `json:"bits"`
		Bit    int         `json:"bit"`
		Inputs [][]float64 `json:"inputs,omitempty"`
	}{netMemoKey(q.ref, q.cn), q.faults, q.model.Name,
		q.params.C, q.params.Value, q.params.Bits, q.params.Bit, q.inputs}
}

// worstCaseResponse fields are in sorted key order (see query.go).
type worstCaseResponse struct {
	Bound          float64 `json:"bound"`
	Configurations int64   `json:"configurations"`
	Deterministic  bool    `json:"deterministic"`
	DeviationCap   float64 `json:"deviation_cap"`
	Faults         []int   `json:"faults"`
	Inputs         int     `json:"inputs"`
	Model          string  `json:"model"`
	NetworkID      string  `json:"network_id"`
	// Pruned and Visited are set on the sync route only: under parallel
	// sharding they depend on how fast the pruning floor propagates
	// between workers, and the content-addressed ResultID of a resumed
	// job must match an uninterrupted run's exactly.
	Pruned *int64 `json:"pruned,omitempty"`
	// Utilization is worst_error/bound, present whenever bound > 0.
	Utilization *float64    `json:"utilization,omitempty"`
	Visited     *int64      `json:"visited,omitempty"`
	WorstError  float64     `json:"worst_error"`
	WorstPlan   []planFault `json:"worst_plan"`
}

// planFault is one failed neuron of worst_plan, fields in sorted key
// order.
type planFault struct {
	Index int `json:"index"`
	Layer int `json:"layer"`
}

// wcCheckpoint is the durable partial state of an exhaustive worst-case
// sweep: the subtree frontier. Next is the first tree-order
// configuration index not yet covered; State carries the incumbent
// (error, first-attaining flat index, plan) and the visited/pruned
// tallies of the completed prefix. Resuming seeds the pruning floor
// from State.WorstError — a tighter floor prunes MORE than the fresh
// run but never differently in outcome (pruning is sound), so the
// resumed sweep reproduces the uninterrupted result document
// bit-identically.
type wcCheckpoint struct {
	Next  int64             `json:"next"`
	State fault.SearchState `json:"state"`
}

// compute runs the pruned tree engine, sharded over the server's worker
// pool, and compares the worst case against the matching closed-form
// certificate. A job sweeps in checkpointed frontier chunks, large
// multiples of the Monte Carlo interval: a configuration costs one
// damaged partial sweep, far less than a trial's full plan compile.
func (q wcQuery) compute(s *Server, run queryRun) (any, error) {
	inputs := q.inputs
	if inputs == nil {
		inputs, _ = q.cn.standardInputs()
	}
	eng, err := fault.NewWorstCase(q.cn.model, q.faults, inputs, fault.WorstCaseOptions{
		Injector:   q.inj,
		Prune:      true,
		MaxConfigs: fault.MaxWorstCaseConfigs,
		Pool:       s.pool,
	})
	if err != nil {
		return nil, badRequest(err.Error())
	}
	total := eng.Total()
	st := fault.NewSearchState()
	done := int64(0)
	var ck wcCheckpoint
	if ok, err := run.restore(&ck); err != nil {
		return nil, err
	} else if ok && ck.Next > 0 && ck.Next <= total &&
		ck.State.Visited+ck.State.Pruned == ck.Next && ck.State.WorstFlat < ck.Next {
		st = ck.State
		done = ck.Next
	}
	err = run.sweep(done, total, int64(s.mcChunk)*16, func(lo, hi int64) error {
		return eng.Search(run.ctx, lo, hi, &st)
	}, func(done int64) any { return wcCheckpoint{Next: done, State: st} })
	if err != nil {
		return nil, err
	}
	res := eng.Result(st)
	dev := q.model.NeuronDeviation(q.params, q.cn.shape)
	b := q.cn.getBounds()
	bound := b.cert.Fep(q.faults, dev)
	q.cn.putBounds(b)
	if res.WorstError > bound*(1+1e-9) {
		// A violated bound is a bug in the engine, never a valid answer.
		return nil, &httpError{status: http.StatusInternalServerError,
			msg: fmt.Sprintf("bound violated: worst error %g > bound %g", res.WorstError, bound)}
	}
	plan := make([]planFault, len(res.WorstPlan.Neurons))
	for i, f := range res.WorstPlan.Neurons {
		plan[i] = planFault{Index: f.Index, Layer: f.Layer}
	}
	resp := worstCaseResponse{
		Bound:          bound,
		Configurations: res.Configurations,
		Deterministic:  true,
		DeviationCap:   dev,
		Faults:         q.faults,
		Inputs:         len(inputs),
		Model:          q.model.Name,
		NetworkID:      q.cn.id,
		Utilization:    ratio(res.WorstError, bound),
		WorstError:     res.WorstError,
		WorstPlan:      plan,
	}
	if run.task == nil {
		resp.Pruned, resp.Visited = &res.Pruned, &res.Visited
	}
	return resp, nil
}
