package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
)

// env is one booted system under test: a fresh store, the real
// serve.Server behind a loopback listener, the workload's uploaded
// models and its prepared request bodies.
type env struct {
	w      *workload
	seed   uint64
	dir    string
	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	models map[string]*model
	tmpls  []*reqTemplate
	weight int // Σ template weights
}

// reqTemplate is one prepared request type of the mix. Upload templates
// carry no body: every upload sends a freshly generated network.
type reqTemplate struct {
	spec   *reqSpec
	model  *model
	path   string
	body   []byte
	inputs [][]float64 // kept to check the answer
}

// clients bounds the load generator: no more connections or job
// submitters than the machine has CPUs.
func clients() int { return runtime.NumCPU() }

// setup boots the system for w from a fresh store under dir, uploads
// the seed's models and warms every request type and job kind once. It
// returns the time from start to ready.
func setup(w *workload, seed uint64, dir string) (*env, time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{Store: st})
	if err != nil {
		return nil, 0, fmt.Errorf("serve: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	e := &env{
		w: w, seed: seed, dir: dir, st: st, srv: srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients(),
			MaxIdleConnsPerHost: clients(),
			DisableCompression:  true,
		}},
		models: map[string]*model{},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	if err := e.load(); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

// load generates and uploads the models, prepares the request bodies
// and warms the caches.
func (e *env) load() error {
	for i, name := range e.w.models {
		m, err := newModel(name, rng.NewStream(e.seed^nsModel, uint64(i)))
		if err != nil {
			return err
		}
		if m.id, err = e.upload(m.doc); err != nil {
			return err
		}
		e.models[name] = m
	}
	for i := range e.w.reqs {
		t, err := e.template(&e.w.reqs[i], uint64(i))
		if err != nil {
			return err
		}
		e.tmpls = append(e.tmpls, t)
		e.weight += t.spec.weight
	}
	for i, t := range e.tmpls {
		if r := e.request(t, 1<<40|uint64(i), nil); r.err != nil {
			return fmt.Errorf("warm-up %s: %w", t.path, r.err)
		}
	}
	warmed := map[string]bool{}
	for i := range e.w.jobs {
		s := &e.w.jobs[i]
		key := fmt.Sprint(s.kind, s.model, s.faults)
		if warmed[key] {
			continue
		}
		warmed[key] = true
		if j := e.job(s, 1<<40|uint64(i), nil); j.err != nil {
			return fmt.Errorf("warm-up %s job: %w", s.kind, j.err)
		}
	}
	return nil
}

// template prepares the body of one request type; inputs and seeds come
// from the workload seed.
func (e *env) template(s *reqSpec, idx uint64) (*reqTemplate, error) {
	m := e.models[s.model]
	if m == nil {
		return nil, fmt.Errorf("request mix names unknown model %q", s.model)
	}
	t := &reqTemplate{spec: s, model: m, path: "/v1/" + s.route}
	r := rng.NewStream(e.seed^nsBody, idx)
	d := m.m.Width(0)
	body := map[string]any{"network_id": m.id}
	switch s.route {
	case "upload":
		t.path = "/v1/networks"
		return t, nil
	case "bounds":
		body["faults"], body["c"] = s.faults, s.c
	case "eval":
		t.inputs = randomInputs(r, evalInputs, d)
		body["inputs"] = t.inputs
	case "inject":
		body["faults"], body["model"], body["c"] = s.faults, s.mode, 1.0
	case "worstcase":
		t.inputs = randomInputs(r, wcInputs, d)
		body["faults"], body["inputs"] = s.faults, t.inputs
	case "montecarlo":
		t.inputs = randomInputs(r, mcInputs, d)
		body["faults"], body["c"], body["trials"], body["seed"], body["inputs"] = s.faults, s.c, s.trials, r.Uint64()>>1|1, t.inputs
	default:
		return nil, fmt.Errorf("unknown route %q", s.route)
	}
	var err error
	t.body, err = json.Marshal(body)
	return t, err
}

// upload stores a model document through POST /v1/networks.
func (e *env) upload(doc []byte) (string, error) {
	status, resp, err := e.post("/v1/networks", doc)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("upload: status %d: %s", status, truncate(resp))
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return "", fmt.Errorf("upload response: %w", err)
	}
	return out.ID, nil
}

func (e *env) post(path string, body []byte) (int, []byte, error) {
	return e.do(http.MethodPost, path, body)
}

func (e *env) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// close shuts the server down, drains the job tier and removes the
// store.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.srv.Close()
	e.client.CloseIdleConnections()
	if rerr := os.RemoveAll(e.dir); rerr != nil && err == nil {
		err = rerr
	}
	// Flush the deletions now: left to writeback, they slow whatever
	// runs next (the next boot, or the next run) by a third or more.
	syscall.Sync()
	return err
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
