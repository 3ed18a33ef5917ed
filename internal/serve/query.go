package serve

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strings"

	"repro/internal/jobs"
	"repro/internal/nn"
)

// A query kind is one of the paper's questions the service answers:
// certificates, measured error against the bound, the exhaustive worst
// case, a Monte Carlo profile, a set of experiments. Each kind has one
// entry in queries. Its sync route, job submission (validateJob) and
// job execution (execJob) all decode, resolve, key and compute through
// that entry, so a request the route rejects is rejected at submit,
// never accepted and failed later.
//
// Job results are content-addressed by store.Put, which encodes them
// with encoding/json. Earlier builds stored them as maps, whose keys
// encode in sorted order, so every result struct declares its fields in
// sorted key order: the bytes, and with them every ResultID, stay the
// same.

// query is a decoded, validated request of one kind: defaults applied
// and every check its compute relies on run.
type query interface {
	// memo returns the canonical resolved request the job memo key
	// hashes: equivalent requests key equally.
	memo() any
	// compute answers the query within run.
	compute(s *Server, run queryRun) (any, error)
}

// queries maps each query kind to its resolver.
var queries = map[string]func(s *Server, raw []byte) (query, error){
	jobKindEval:        resolveAs((*Server).resolveEval),
	jobKindBounds:      resolveAs((*Server).resolveBounds),
	jobKindInject:      resolveAs((*Server).resolveInject),
	jobKindMonteCarlo:  resolveAs((*Server).resolveMonteCarlo),
	jobKindWorstCase:   resolveAs((*Server).resolveWorstCase),
	jobKindExperiments: resolveAs(resolveExperiments),
}

// jobKinds lists the query kinds for error messages.
func jobKinds() string {
	kinds := make([]string, 0, len(queries))
	for k := range queries {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return strings.Join(kinds, ", ")
}

// resolveAs turns a kind's typed resolver into a table entry: it
// strictly decodes the request bytes first.
func resolveAs[R any, Q query](resolve func(*Server, R) (Q, error)) func(*Server, []byte) (query, error) {
	return func(s *Server, raw []byte) (query, error) {
		var req R
		if err := nn.StrictUnmarshal(raw, &req); err != nil {
			return nil, badRequest(err.Error())
		}
		// On error the caller drops q unread.
		return resolve(s, req)
	}
}

// handleQuery serves a query kind's sync route. The request context
// bounds the compute: when the client is gone or the server is
// draining, nobody is listening and a partial answer would be wrong,
// so the route answers 499.
func (s *Server) handleQuery(kind string) http.HandlerFunc {
	resolve := queries[kind]
	return func(w http.ResponseWriter, r *http.Request) {
		data, err := readBody(r)
		if err != nil {
			fail(w, err)
			return
		}
		q, err := resolve(s, data)
		if err != nil {
			fail(w, err)
			return
		}
		resp, err := q.compute(s, queryRun{ctx: r.Context()})
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			writeError(w, statusClientClosedRequest, err.Error())
		case err != nil:
			fail(w, err)
		default:
			writeJSON(w, http.StatusOK, resp)
		}
	}
}

// statusClientClosedRequest is nginx's convention for "the client went
// away before the response"; no standard library constant exists.
const statusClientClosedRequest = 499

// queryRun is where a query computes: a sync request (task nil) or one
// job attempt, which restores and writes checkpoints and reports
// progress. A sync run takes no checkpoints.
type queryRun struct {
	ctx  context.Context
	task *jobs.Task
}

// restore loads the job's latest checkpoint into v, reporting whether
// one exists.
func (r queryRun) restore(v any) (bool, error) {
	if r.task == nil {
		return false, nil
	}
	return r.task.RestoreCheckpoint(v)
}

// sweep runs step over [done, total) in chunks of every, checkpointing
// state(end) after each chunk but the last. A sync run takes the whole
// range as one chunk.
func (r queryRun) sweep(done, total, every int64, step func(lo, hi int64) error, state func(done int64) any) error {
	if r.task == nil {
		return step(done, total)
	}
	r.task.Progress(done, total)
	for done < total {
		end := min(done+every, total)
		if err := step(done, end); err != nil {
			return err
		}
		done = end
		if done < total {
			if err := r.task.Checkpoint(state(done), done, total); err != nil {
				return err
			}
		} else {
			r.task.Progress(done, total)
		}
	}
	return nil
}
