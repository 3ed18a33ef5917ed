// Package serve is the long-running robustness-query service: an HTTP
// JSON API over the store and the evaluation engine that answers
// Fep-bound, fault-injection and Monte Carlo queries on demand — the
// paper's core promise (cheap topology-only robustness certificates)
// operationalised as a service instead of a one-shot CLI run.
//
// Endpoints (see DESIGN.md §5 for request/response schemas):
//
//	GET  /healthz               — liveness + cache and job-tier statistics
//	GET  /v1/networks           — list stored networks
//	POST /v1/networks           — upload a network into the store
//	POST /v1/eval               — batched forward evaluation
//	POST /v1/bounds             — Fep / tolerance certificates
//	POST /v1/inject             — fault injection: measured error vs bound
//	POST /v1/montecarlo         — sharded random-failure profile
//	POST /v1/worstcase          — exhaustive worst-case search (tree engine, bound-guided pruning)
//	POST /v1/quantize           — persist a fixed-point recipe with its Theorem 5 certificate
//	POST /v1/jobs               — submit an async job (eval/bounds/inject/montecarlo/worstcase/experiments)
//	GET  /v1/jobs               — list jobs
//	GET  /v1/jobs/{id}          — job record; ?watch=1 streams NDJSON updates
//	GET  /v1/jobs/{id}/result   — completed job's result document
//	POST /v1/jobs/{id}/cancel   — cancel a queued or running job
//
// Every model-accepting endpoint serves dense networks and native
// convolutional models (conv1d/conv2d documents) alike; conv queries
// run on the native engine and their bounds use the Section VI
// receptive-field shape.
//
// Steady-state hot paths allocate nothing beyond the HTTP/JSON shell:
// per-network state (shape, certifier scratch, compiled fault plans,
// clean traces of the standard input set) is cached on first use, eval
// runs on pooled nn.Scratch buffers, and Monte Carlo trials are sharded
// over a persistent parallel.Pool.
//
// Long campaigns go through the async job tier (DESIGN.md §7): a
// bounded worker pool with queue-depth backpressure (429 + Retry-After
// when full), per-attempt deadlines, retry with exponential backoff,
// durable checkpoint/resume through the artifact store, and
// request-hash memoization of completed results. SIGTERM drains the
// tier: running campaigns checkpoint and park, and the next process
// resumes them.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/parallel"
	"repro/internal/store"
)

// Config sizes a Server.
type Config struct {
	// Store backs upload/list, network_id resolution, and the async job
	// tier. When nil, only inline-network queries work; uploads and jobs
	// are rejected.
	Store *store.Store
	// Workers sizes the Monte Carlo worker pool (<= 0 selects the
	// default degree of parallelism).
	Workers int

	// JobWorkers bounds concurrently executing async jobs (default 2).
	JobWorkers int
	// JobQueue bounds jobs accepted but not yet running; a full queue
	// rejects submissions with 429 + Retry-After (default 64).
	JobQueue int
	// JobDeadline bounds one job attempt (0 = unbounded). A deadline hit
	// retries from the last checkpoint.
	JobDeadline time.Duration
	// JobRetries bounds attempts per job (default 3).
	JobRetries int
	// JobCheckpointTrials sets the Monte Carlo campaign checkpoint
	// interval in trials (default 2048).
	JobCheckpointTrials int
	// Logf, when non-nil, receives operational messages from the job
	// tier (persistence failures, recovered panics).
	Logf func(format string, args ...any)
}

// Server answers robustness queries over HTTP. Create with New, expose
// with Handler (or let Run manage the listener), release with Close.
type Server struct {
	st      *store.Store
	pool    *parallel.Pool
	jobs    *jobs.Manager
	mux     *http.ServeMux
	start   time.Time
	mcChunk int

	mu    sync.RWMutex
	nets  map[string]*cachedNet // by full store ID, at most maxCachedNets
	loads map[string]*netLoad   // stored models being loaded, by full store ID
	tick  atomic.Uint64         // recency clock for evicting nets
}

// Body limits per route class: model-bearing requests carry networks
// with millions of parameters; control-plane requests do not.
const (
	maxBodyBytes   = 64 << 20
	smallBodyBytes = 1 << 20
)

// New builds a Server from cfg. With a store configured it also starts
// the async job tier, recovering and resuming any jobs a previous
// process left queued, running, or checkpointed.
func New(cfg Config) (*Server, error) {
	s := &Server{
		st:      cfg.Store,
		pool:    parallel.NewPool(cfg.Workers),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		mcChunk: cfg.JobCheckpointTrials,
		nets:    map[string]*cachedNet{},
		loads:   map[string]*netLoad{},
	}
	if s.mcChunk <= 0 {
		s.mcChunk = 2048
	}
	s.handle("GET /healthz", smallBodyBytes, s.handleHealthz)
	s.handle("GET /v1/networks", smallBodyBytes, s.handleListNetworks)
	s.handle("POST /v1/networks", maxBodyBytes, s.handleUploadNetwork)
	s.handle("POST /v1/eval", maxBodyBytes, s.handleEval)
	s.handle("POST /v1/bounds", maxBodyBytes, s.handleBounds)
	s.handle("POST /v1/inject", maxBodyBytes, s.handleInject)
	s.handle("POST /v1/montecarlo", maxBodyBytes, s.handleMonteCarlo)
	s.handle("POST /v1/worstcase", maxBodyBytes, s.handleWorstCase)
	s.handle("POST /v1/quantize", smallBodyBytes, s.handleQuantize)
	s.handle("POST /v1/jobs", maxBodyBytes, s.handleJobSubmit)
	s.handle("GET /v1/jobs", smallBodyBytes, s.handleJobList)
	s.handle("GET /v1/jobs/{id}", smallBodyBytes, s.handleJobGet)
	s.handle("GET /v1/jobs/{id}/result", smallBodyBytes, s.handleJobResult)
	s.handle("POST /v1/jobs/{id}/cancel", smallBodyBytes, s.handleJobCancel)
	if cfg.Store != nil {
		m, err := jobs.New(jobs.Config{
			Store:       cfg.Store,
			Exec:        s.execJob,
			Workers:     cfg.JobWorkers,
			QueueDepth:  cfg.JobQueue,
			Deadline:    cfg.JobDeadline,
			MaxAttempts: cfg.JobRetries,
			Logf:        cfg.Logf,
		})
		if err != nil {
			s.pool.Close()
			return nil, fmt.Errorf("job tier: %w", err)
		}
		s.jobs = m
	}
	return s, nil
}

// handle registers a route with its request-body limit: every /v1/*
// handler reads through a MaxBytesReader sized for its route class.
func (s *Server) handle(pattern string, limit int64, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		h(w, r)
	})
}

// Handler returns the service's HTTP handler with the panic-recovery
// middleware applied (body limits are per route).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Drain gracefully shuts the async job tier down: submissions are
// rejected, running campaigns checkpoint and park as resumable records,
// and the job workers exit. ctx bounds the wait. Without a job tier it
// is a no-op.
func (s *Server) Drain(ctx context.Context) error {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.Close(ctx)
}

// Close drains the job tier (bounded) and releases the worker pool.
// The Server must not serve requests afterwards.
func (s *Server) Close() {
	if s.jobs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.jobs.Close(ctx) //nolint:errcheck // best effort on the way out
		cancel()
	}
	s.pool.Close()
}

// Run listens on addr and serves until ctx is cancelled, then shuts
// down gracefully: in-flight requests drain (bounded), then the job
// tier checkpoints and parks its campaigns so the next process resumes
// them. logf, when non-nil, receives one "listening on <addr>" line
// once the listener is bound — with addr ":0" this is how callers learn
// the port.
func Run(ctx context.Context, addr string, cfg Config, logf func(format string, args ...any)) error {
	if cfg.Logf == nil {
		cfg.Logf = logf
	}
	s, err := New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if logf != nil {
		logf("listening on %s", ln.Addr())
	}
	hs := &http.Server{
		Handler: s.Handler(),
		// Slowloris and stuck-peer protection: no request may hold a
		// connection open indefinitely. Streaming watches stay well
		// inside WriteTimeout (watchWindow).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(shCtx)
		<-errc // Serve has returned http.ErrServerClosed
		if derr := s.Drain(shCtx); derr != nil && err == nil {
			err = derr
		}
		return err
	case err := <-errc:
		return err
	}
}
