package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/store"
)

// Job kinds accepted by POST /v1/jobs. Each wraps one synchronous
// query path; montecarlo and experiments additionally checkpoint
// partial state so campaigns survive worker and process failures.
const (
	jobKindEval        = "eval"
	jobKindBounds      = "bounds"
	jobKindInject      = "inject"
	jobKindMonteCarlo  = "montecarlo"
	jobKindWorstCase   = "worstcase"
	jobKindExperiments = "experiments"
)

func jobKinds() string {
	return strings.Join([]string{jobKindEval, jobKindBounds, jobKindInject, jobKindMonteCarlo, jobKindWorstCase, jobKindExperiments}, ", ")
}

// jobSubmitRequest is the POST /v1/jobs body: a kind plus that kind's
// synchronous request document.
type jobSubmitRequest struct {
	Kind    string          `json:"kind"`
	Request json.RawMessage `json:"request,omitempty"`
}

// experimentsJobRequest selects registered experiments by ID and/or
// tag, exactly like the paperrepro CLI flags.
type experimentsJobRequest struct {
	IDs  []string `json:"ids,omitempty"`
	Tags []string `json:"tags,omitempty"`
}

// netMemoKey identifies the network for memoization: the content
// address for stored networks, the hash of the raw document for inline
// ones. Either way, identical networks hash identically.
func netMemoKey(ref netRef, cn *cachedNet) string {
	if cn.id != "" {
		return cn.id
	}
	return store.ID(ref.Network)
}

// validateJob strictly decodes a job request and runs the kind's
// resolver at submit time — whatever the synchronous route would
// reject fails the submission with the same client error instead of
// failing the job later — and derives the memo key from the resolved
// canonical form (defaults applied), so equivalent requests collide.
func (s *Server) validateJob(kind string, raw json.RawMessage) (string, error) {
	switch kind {
	case jobKindEval:
		var req evalRequest
		if err := strictUnmarshal(raw, &req); err != nil {
			return "", badRequest(err.Error())
		}
		ev, err := s.resolveEval(req)
		if err != nil {
			return "", err
		}
		return memoKey(jobKindEval, struct {
			Net    string      `json:"net"`
			Inputs [][]float64 `json:"inputs"`
		}{netMemoKey(req.netRef, ev.cn), ev.inputs})
	case jobKindBounds:
		var req boundsRequest
		if err := strictUnmarshal(raw, &req); err != nil {
			return "", badRequest(err.Error())
		}
		br, err := s.resolveBounds(req)
		if err != nil {
			return "", err
		}
		return memoKey(jobKindBounds, struct {
			Net      string  `json:"net"`
			Faults   []int   `json:"faults"`
			C        float64 `json:"c"`
			Eps      float64 `json:"eps"`
			EpsPrime float64 `json:"eps_prime"`
		}{netMemoKey(req.netRef, br.cn), br.faults, br.c, br.eps, br.epsPrime})
	case jobKindInject:
		var req injectRequest
		if err := strictUnmarshal(raw, &req); err != nil {
			return "", badRequest(err.Error())
		}
		ir, err := s.resolveInject(req)
		if err != nil {
			return "", err
		}
		p := ir.params
		return memoKey(jobKindInject, struct {
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
		}{netMemoKey(req.netRef, ir.cn), ir.faults, ir.model.Name, ir.adversarial, ir.seed,
			p.C, p.Value, p.Prob, p.Bits, p.Bit})
	case jobKindMonteCarlo:
		var req monteCarloRequest
		if err := strictUnmarshal(raw, &req); err != nil {
			return "", badRequest(err.Error())
		}
		mc, err := s.resolveMonteCarlo(req)
		if err != nil {
			return "", err
		}
		return memoKey(jobKindMonteCarlo, struct {
			Net    string      `json:"net"`
			Faults []int       `json:"faults"`
			C      float64     `json:"c"`
			Trials int         `json:"trials"`
			Seed   uint64      `json:"seed"`
			Inputs [][]float64 `json:"inputs,omitempty"`
		}{netMemoKey(req.netRef, mc.cn), mc.faults, mc.c, mc.trials, mc.seed, req.Inputs})
	case jobKindWorstCase:
		var req worstCaseRequest
		if err := strictUnmarshal(raw, &req); err != nil {
			return "", badRequest(err.Error())
		}
		wc, err := s.resolveWorstCase(req)
		if err != nil {
			return "", err
		}
		// max_configs is an admission guard, not a result input: two
		// requests differing only there produce the same document, so it
		// stays out of the memo key.
		return memoKey(jobKindWorstCase, struct {
			Net    string      `json:"net"`
			Faults []int       `json:"faults"`
			Model  string      `json:"model"`
			C      float64     `json:"c"`
			Value  float64     `json:"value"`
			Bits   int         `json:"bits"`
			Bit    int         `json:"bit"`
			Inputs [][]float64 `json:"inputs,omitempty"`
		}{netMemoKey(req.netRef, wc.cn), wc.faults, wc.model.Name,
			wc.params.C, wc.params.Value, wc.params.Bits, wc.params.Bit, req.Inputs})
	case jobKindExperiments:
		var req experimentsJobRequest
		if err := strictUnmarshal(raw, &req); err != nil {
			return "", badRequest(err.Error())
		}
		exps, err := resolveExperiments(req)
		if err != nil {
			return "", err
		}
		ids := make([]string, len(exps))
		for i, e := range exps {
			ids[i] = e.ID
		}
		return memoKey(jobKindExperiments, struct {
			IDs []string `json:"ids"`
		}{ids})
	default:
		return "", badRequest(fmt.Sprintf("unknown job kind %q; kinds: %s", kind, jobKinds()))
	}
}

// resolveExperiments selects the requested experiments, rejecting an
// empty selection.
func resolveExperiments(req experimentsJobRequest) ([]experiments.Experiment, error) {
	exps, err := experiments.Select(experiments.Options{IDs: req.IDs, Tags: req.Tags})
	if err != nil {
		return nil, badRequest(err.Error())
	}
	if len(exps) == 0 {
		return nil, badRequest("selection matches no experiments")
	}
	return exps, nil
}

// memoKey hashes {kind, canonical resolved request} — the schema
// DESIGN.md §7 documents.
func memoKey(kind string, v any) (string, error) {
	return store.MemoKey(struct {
		Kind    string `json:"kind"`
		Request any    `json:"request"`
	}{kind, v})
}

// execJob is the jobs.Exec adapter: it dispatches one attempt of any
// job kind onto the corresponding resolver and compute path.
func (s *Server) execJob(t *jobs.Task) (any, error) {
	switch t.Kind() {
	case jobKindEval:
		var req evalRequest
		if err := strictUnmarshal(t.Request(), &req); err != nil {
			return nil, err
		}
		ev, err := s.resolveEval(req)
		if err != nil {
			return nil, err
		}
		return computeEval(ev), nil
	case jobKindBounds:
		var req boundsRequest
		if err := strictUnmarshal(t.Request(), &req); err != nil {
			return nil, err
		}
		br, err := s.resolveBounds(req)
		if err != nil {
			return nil, err
		}
		return computeBounds(br), nil
	case jobKindInject:
		var req injectRequest
		if err := strictUnmarshal(t.Request(), &req); err != nil {
			return nil, err
		}
		ir, err := s.resolveInject(req)
		if err != nil {
			return nil, err
		}
		return computeInject(ir)
	case jobKindMonteCarlo:
		return s.execMonteCarlo(t)
	case jobKindWorstCase:
		return s.execWorstCase(t)
	case jobKindExperiments:
		return s.execExperiments(t)
	default:
		return nil, fmt.Errorf("unknown job kind %q", t.Kind())
	}
}

// mcCheckpoint is the durable partial state of a Monte Carlo campaign:
// the worst-case errors of the completed trial prefix. Trial t depends
// only on (seed, t), so the prefix plus recomputation of the remainder
// reproduces the uninterrupted profile bit-identically.
type mcCheckpoint struct {
	Completed int       `json:"completed"`
	Errs      []float64 `json:"errs"`
}

// execMonteCarlo runs a Monte Carlo campaign in checkpointed chunks:
// every chunk boundary persists the completed prefix, so a killed
// worker or process resumes there instead of restarting the campaign.
func (s *Server) execMonteCarlo(t *jobs.Task) (any, error) {
	var req monteCarloRequest
	if err := strictUnmarshal(t.Request(), &req); err != nil {
		return nil, err
	}
	mc, err := s.resolveMonteCarlo(req)
	if err != nil {
		return nil, err
	}
	traces := mc.cleanTraces()
	errs := make([]float64, mc.trials)
	done := 0
	var ck mcCheckpoint
	if ok, err := t.RestoreCheckpoint(&ck); err != nil {
		return nil, err
	} else if ok && ck.Completed > 0 && ck.Completed <= mc.trials && len(ck.Errs) >= ck.Completed {
		copy(errs, ck.Errs[:ck.Completed])
		done = ck.Completed
	}
	t.Progress(int64(done), int64(mc.trials))
	for done < mc.trials {
		end := done + s.mcChunk
		if end > mc.trials {
			end = mc.trials
		}
		if err := s.mcRange(t.Ctx(), mc.cn, mc.faults, mc.c, traces, mc.seed, done, errs[done:end]); err != nil {
			return nil, err
		}
		done = end
		if done < mc.trials {
			if err := t.Checkpoint(mcCheckpoint{Completed: done, Errs: errs[:done]}, int64(done), int64(mc.trials)); err != nil {
				return nil, err
			}
		} else {
			t.Progress(int64(done), int64(mc.trials))
		}
	}
	return mcResponse(mc, fault.ProfileOf(errs)), nil
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

// execWorstCase runs an exhaustive sweep in checkpointed frontier
// chunks. Chunks are large multiples of the Monte Carlo interval: a
// configuration costs one damaged partial sweep, far less than a
// trial's full plan compile.
func (s *Server) execWorstCase(t *jobs.Task) (any, error) {
	var req worstCaseRequest
	if err := strictUnmarshal(t.Request(), &req); err != nil {
		return nil, err
	}
	wc, err := s.resolveWorstCase(req)
	if err != nil {
		return nil, err
	}
	eng, err := s.worstCaseEngine(wc)
	if err != nil {
		return nil, err
	}
	total := eng.Total()
	st := fault.NewSearchState()
	done := int64(0)
	var ck wcCheckpoint
	if ok, err := t.RestoreCheckpoint(&ck); err != nil {
		return nil, err
	} else if ok && ck.Next > 0 && ck.Next <= total &&
		ck.State.Visited+ck.State.Pruned == ck.Next && ck.State.WorstFlat < ck.Next {
		st = ck.State
		done = ck.Next
	}
	t.Progress(done, total)
	chunk := int64(s.mcChunk) * 16
	for done < total {
		end := done + chunk
		if end > total {
			end = total
		}
		if err := eng.Search(t.Ctx(), done, end, &st); err != nil {
			return nil, err
		}
		done = end
		if done < total {
			if err := t.Checkpoint(wcCheckpoint{Next: done, State: st}, done, total); err != nil {
				return nil, err
			}
		} else {
			t.Progress(done, total)
		}
	}
	// The result document excludes the visited/pruned counters: under
	// parallel sharding they depend on how fast the pruning floor
	// propagates between workers, and the content-addressed ResultID of
	// a resumed job must match an uninterrupted run's exactly.
	return s.worstCaseResponse(wc, eng.Result(st))
}

// expCheckpoint is the durable partial state of an experiments job:
// the records of every experiment completed so far.
type expCheckpoint struct {
	Records []experiments.Record `json:"records"`
}

// execExperiments regenerates the selected experiments one at a time,
// checkpointing after each — a restarted campaign skips everything
// already recorded.
func (s *Server) execExperiments(t *jobs.Task) (any, error) {
	var req experimentsJobRequest
	if err := strictUnmarshal(t.Request(), &req); err != nil {
		return nil, err
	}
	exps, err := resolveExperiments(req)
	if err != nil {
		return nil, err
	}
	var ck expCheckpoint
	if _, err := t.RestoreCheckpoint(&ck); err != nil {
		return nil, err
	}
	completed := map[string]bool{}
	for _, r := range ck.Records {
		completed[r.ID] = true
	}
	records := ck.Records
	t.Progress(int64(len(records)), int64(len(exps)))
	for _, e := range exps {
		if completed[e.ID] {
			continue
		}
		if err := t.Ctx().Err(); err != nil {
			return nil, err
		}
		out := experiments.Run([]experiments.Experiment{e}, s.pool.Size())
		records = append(records, experiments.Records(out)...)
		if err := t.Checkpoint(expCheckpoint{Records: records}, int64(len(records)), int64(len(exps))); err != nil {
			return nil, err
		}
	}
	return map[string]any{"count": len(records), "experiments": records}, nil
}

// ---- POST /v1/jobs ----

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, "no artifact store configured (async jobs require one)")
		return
	}
	var req jobSubmitRequest
	if err := decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	if req.Kind == "" {
		fail(w, badRequest(fmt.Sprintf("missing kind; kinds: %s", jobKinds())))
		return
	}
	raw := req.Request
	if len(raw) == 0 {
		raw = json.RawMessage("{}")
	}
	key, err := s.validateJob(req.Kind, raw)
	if err != nil {
		fail(w, err)
		return
	}
	rec, err := s.jobs.Submit(req.Kind, raw, key)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		// The backpressure contract: the client backs off and retries.
		secs := int(math.Ceil(s.jobs.RetryAfter().Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, "job queue full; retry later")
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "server draining; not accepting jobs")
	case err != nil:
		fail(w, err)
	case rec.State.Terminal():
		// Memoized: the completed record, no recomputation, no queue slot.
		writeJSON(w, http.StatusOK, rec)
	default:
		writeJSON(w, http.StatusAccepted, rec)
	}
}

// ---- GET /v1/jobs ----

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, "no artifact store configured (async jobs require one)")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

// watchWindow bounds one streaming watch response so it completes well
// inside the server's write timeout; clients re-watch to keep
// following.
const watchWindow = 50 * time.Second

// ---- GET /v1/jobs/{id} ----

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, "no artifact store configured (async jobs require one)")
		return
	}
	id := r.PathValue("id")
	if r.URL.Query().Get("watch") == "" {
		rec, err := s.jobs.Get(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, rec)
		return
	}
	// watch=1 streams NDJSON records — the current one immediately, one
	// per update after — until the job terminates or the window closes.
	ch, stop, err := s.jobs.Watch(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	window := time.NewTimer(watchWindow)
	defer window.Stop()
	for {
		select {
		case rec, ok := <-ch:
			if !ok {
				return
			}
			if enc.Encode(rec) != nil {
				return // client gone
			}
			if fl != nil {
				fl.Flush()
			}
		case <-window.C:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// ---- GET /v1/jobs/{id}/result ----

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, "no artifact store configured (async jobs require one)")
		return
	}
	data, rec, err := s.jobs.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, jobs.ErrNotDone):
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "job has no result yet", "state": rec.State,
		})
	case err != nil:
		fail(w, err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Result-Id", rec.ResultID)
		w.WriteHeader(http.StatusOK)
		w.Write(data) //nolint:errcheck // the client is gone if this fails
	}
}

// ---- POST /v1/jobs/{id}/cancel ----

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, "no artifact store configured (async jobs require one)")
		return
	}
	rec, ok, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"cancelled": ok, "job": rec})
}
