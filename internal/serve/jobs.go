package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/store"
)

// Job kinds accepted by POST /v1/jobs: every query kind (query.go).
// montecarlo, worstcase and experiments checkpoint partial state so
// campaigns survive worker and process failures.
const (
	jobKindEval        = "eval"
	jobKindBounds      = "bounds"
	jobKindInject      = "inject"
	jobKindMonteCarlo  = "montecarlo"
	jobKindWorstCase   = "worstcase"
	jobKindExperiments = "experiments"
)

// jobSubmitRequest is the POST /v1/jobs body: a kind plus that kind's
// synchronous request document.
type jobSubmitRequest struct {
	Kind    string          `json:"kind"`
	Request json.RawMessage `json:"request,omitempty"`
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

// validateJob strictly decodes a job request and resolves it at submit
// time — whatever the synchronous route would reject fails the
// submission with the same client error instead of failing the job
// later — and derives the memo key from the resolved canonical form
// (defaults applied), so equivalent requests collide.
func (s *Server) validateJob(kind string, raw json.RawMessage) (string, error) {
	resolve, ok := queries[kind]
	if !ok {
		return "", badRequest(fmt.Sprintf("unknown job kind %q; kinds: %s", kind, jobKinds()))
	}
	q, err := resolve(s, raw)
	if err != nil {
		return "", err
	}
	return memoKey(kind, q.memo())
}

// memoKey hashes {kind, canonical resolved request} — the schema
// DESIGN.md §7 documents.
func memoKey(kind string, v any) (string, error) {
	return store.MemoKey(struct {
		Kind    string `json:"kind"`
		Request any    `json:"request"`
	}{kind, v})
}

// execJob is the jobs.Exec adapter: it runs one attempt of any job
// kind through the kind's resolver and compute, with the attempt's
// context and checkpoints.
func (s *Server) execJob(t *jobs.Task) (any, error) {
	resolve, ok := queries[t.Kind()]
	if !ok {
		return nil, fmt.Errorf("unknown job kind %q", t.Kind())
	}
	q, err := resolve(s, t.Request())
	if err != nil {
		return nil, err
	}
	return q.compute(s, queryRun{ctx: t.Ctx(), task: t})
}

// ---- experiments (job only) ----

// experimentsJobRequest selects registered experiments by ID and/or
// tag, exactly like the paperrepro CLI flags.
type experimentsJobRequest struct {
	IDs  []string `json:"ids,omitempty"`
	Tags []string `json:"tags,omitempty"`
}

// expQuery is a non-empty experiment selection, in registry order.
type expQuery []experiments.Experiment

func resolveExperiments(_ *Server, req experimentsJobRequest) (expQuery, error) {
	exps, err := experiments.Select(experiments.Options{IDs: req.IDs, Tags: req.Tags})
	if err != nil {
		return nil, badRequest(err.Error())
	}
	if len(exps) == 0 {
		return nil, badRequest("selection matches no experiments")
	}
	return exps, nil
}

func (q expQuery) memo() any {
	ids := make([]string, len(q))
	for i, e := range q {
		ids[i] = e.ID
	}
	return struct {
		IDs []string `json:"ids"`
	}{ids}
}

// experimentsResponse fields are in sorted key order (see query.go).
type experimentsResponse struct {
	Count       int                  `json:"count"`
	Experiments []experiments.Record `json:"experiments"`
}

// expCheckpoint is the durable partial state of an experiments job:
// the records of every experiment completed so far, in selection order.
type expCheckpoint struct {
	Records []experiments.Record `json:"records"`
}

// compute regenerates the selected experiments one at a time,
// checkpointing after each: a restarted campaign resumes after the
// last recorded one.
func (q expQuery) compute(s *Server, run queryRun) (any, error) {
	var ck expCheckpoint
	if _, err := run.restore(&ck); err != nil {
		return nil, err
	}
	records := ck.Records[:min(len(ck.Records), len(q))]
	err := run.sweep(int64(len(records)), int64(len(q)), 1, func(lo, hi int64) error {
		if err := run.ctx.Err(); err != nil {
			return err
		}
		records = append(records, experiments.Records(experiments.Run(q[lo:hi], s.pool.Size()))...)
		return nil
	}, func(int64) any { return expCheckpoint{Records: records} })
	if err != nil {
		return nil, err
	}
	return experimentsResponse{Count: len(records), Experiments: records}, nil
}

// jobRoute guards a job-tier route: without a store there is no tier.
func (s *Server) jobRoute(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.jobs == nil {
			writeError(w, http.StatusServiceUnavailable, "no artifact store configured (async jobs require one)")
			return
		}
		h(w, r)
	}
}

// ---- POST /v1/jobs ----

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobs.Record `json:"jobs"`
	}{s.jobs.List()})
}

// watchWindow bounds one streaming watch response so it completes well
// inside the server's write timeout; clients re-watch to keep
// following.
const watchWindow = 50 * time.Second

// ---- GET /v1/jobs/{id} ----

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
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
	data, rec, err := s.jobs.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, jobs.ErrNotDone):
		writeJSON(w, http.StatusConflict, errorResponse{Error: "job has no result yet", State: rec.State})
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
	rec, ok, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Cancelled bool        `json:"cancelled"`
		Job       jobs.Record `json:"job"`
	}{ok, rec})
}
