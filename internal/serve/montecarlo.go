package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
)

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

// mcQuery is a validated Monte Carlo campaign: defaults applied,
// faults resolved against the layer widths, inputs checked against the
// input width. Its scalar fields (plus the network identity and inputs)
// are exactly what determines the result — the memo key hashes them.
// Validation traces nothing: the inputs' clean traces are computed by
// whoever runs the campaign (cleanTraces).
type mcQuery struct {
	ref    netRef
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
func (q mcQuery) cleanTraces() []*nn.Trace {
	if q.inputs == nil {
		_, traces := q.cn.standardInputs()
		return traces
	}
	return fault.CleanTraces(q.cn.model, q.inputs)
}

func (s *Server) resolveMonteCarlo(req monteCarloRequest) (mcQuery, error) {
	var q mcQuery
	cn, err := s.network(req.netRef)
	if err != nil {
		return q, err
	}
	faults, err := req.Faults.resolve(cn.shape.Widths)
	if err != nil {
		return q, err
	}
	if err := checkCap(&req.C); err != nil {
		return q, err
	}
	trials := req.Trials
	if trials == 0 {
		trials = fault.DefaultTrials
	}
	if trials < 1 || trials > maxTrials {
		return q, badRequest(fmt.Sprintf("trials %d outside [1, %d]", trials, maxTrials))
	}
	seed := req.Seed
	if seed == 0 {
		seed = fault.DefaultTrialSeed
	}
	var inputs [][]float64
	if len(req.Inputs) > 0 {
		if err := checkInputs(cn, req.Inputs); err != nil {
			return q, err
		}
		inputs = req.Inputs
	}
	return mcQuery{ref: req.netRef, cn: cn, faults: faults, c: req.C, trials: trials, seed: seed, inputs: inputs}, nil
}

func (q mcQuery) memo() any {
	return struct {
		Net    string      `json:"net"`
		Faults []int       `json:"faults"`
		C      float64     `json:"c"`
		Trials int         `json:"trials"`
		Seed   uint64      `json:"seed"`
		Inputs [][]float64 `json:"inputs,omitempty"`
	}{netMemoKey(q.ref, q.cn), q.faults, q.c, q.trials, q.seed, q.inputs}
}

// monteCarloResponse fields are in sorted key order (see query.go).
type monteCarloResponse struct {
	Bound  float64 `json:"bound"`
	C      float64 `json:"c"`
	Faults []int   `json:"faults"`
	Max    float64 `json:"max"`
	// MaxVsBound is max/bound, present whenever bound > 0.
	MaxVsBound *float64 `json:"max_vs_bound,omitempty"`
	Mean       float64  `json:"mean"`
	Median     float64  `json:"median"`
	NetworkID  string   `json:"network_id"`
	Q90        float64  `json:"q90"`
	Q99        float64  `json:"q99"`
	Trials     int      `json:"trials"`
}

// mcCheckpoint is the durable partial state of a Monte Carlo campaign:
// the worst-case errors of the completed trial prefix. Trial t depends
// only on (seed, t), so the prefix plus recomputation of the remainder
// reproduces the uninterrupted profile bit-identically.
type mcCheckpoint struct {
	Completed int       `json:"completed"`
	Errs      []float64 `json:"errs"`
}

// compute runs the campaign and compares its profile against the
// matching closed-form bound. A job runs it in checkpointed chunks of
// the server's checkpoint interval, so a killed worker or process
// resumes at the last chunk boundary instead of restarting.
func (q mcQuery) compute(s *Server, run queryRun) (any, error) {
	traces := q.cleanTraces()
	errs := make([]float64, q.trials)
	done := 0
	var ck mcCheckpoint
	if ok, err := run.restore(&ck); err != nil {
		return nil, err
	} else if ok && ck.Completed > 0 && ck.Completed <= q.trials && len(ck.Errs) >= ck.Completed {
		done = copy(errs, ck.Errs[:ck.Completed])
	}
	err := run.sweep(int64(done), int64(q.trials), int64(s.mcChunk), func(lo, hi int64) error {
		return s.mcRange(run.ctx, q.cn, q.faults, q.c, traces, q.seed, int(lo), errs[lo:hi])
	}, func(done int64) any { return mcCheckpoint{Completed: int(done), Errs: errs[:done]} })
	if err != nil {
		return nil, err
	}
	prof := fault.ProfileOf(errs)
	b := q.cn.getBounds()
	var bound float64
	if q.c == 0 {
		bound = b.cert.CrashFep(q.faults)
	} else {
		bound = b.cert.Fep(q.faults, q.c)
	}
	q.cn.putBounds(b)
	return monteCarloResponse{
		Bound:      bound,
		C:          q.c,
		Faults:     q.faults,
		Max:        prof.Stats.Max,
		MaxVsBound: ratio(prof.Stats.Max, bound),
		Mean:       prof.Stats.Mean,
		Median:     prof.Stats.Median,
		NetworkID:  q.cn.id,
		Q90:        prof.Q90,
		Q99:        prof.Q99,
		Trials:     prof.Trials,
	}, nil
}

// mcRange computes the worst-case error for Monte Carlo trials
// [base, base+len(errs)) into errs, sharded over the server's worker
// pool via ForCtx: cancellation or deadline stops the shards between
// chunks and every in-flight chunk is joined before the error returns —
// a 200,000-trial sweep must not keep burning the pool for a caller
// that already hung up. Chunks are whole lane groups (a multiple of
// fault.BatchLanes trials; only the range's last chunk may be shorter),
// and each runs BatchPlan.MonteCarloRange on an evaluator borrowed from
// cn's pool. Trial t always draws from rng.NewStream(seed, t), so the
// result is deterministic for a given seed regardless of pool size,
// scheduling or the base offset — a resumed campaign is bit-identical
// to an uninterrupted one.
func (s *Server) mcRange(ctx context.Context, cn *cachedNet, perLayer []int, c float64, traces []*nn.Trace, seed uint64, base int, errs []float64) error {
	grain := len(errs) / (4 * s.pool.Size())
	grain = max(fault.BatchLanes, (grain+fault.BatchLanes-1)/fault.BatchLanes*fault.BatchLanes)
	return s.pool.ForCtx(ctx, len(errs), grain, func(lo, hi int) {
		bp := cn.batches.Get().(*fault.BatchPlan)
		bp.MonteCarloRange(perLayer, c, core.DeviationCap, traces, seed, base+lo, errs[lo:hi])
		cn.batches.Put(bp)
	})
}
