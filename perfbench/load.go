package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/rng"
)

// opResult is one completed operation of a request phase. An upload
// operation is two requests — the upload and an immediate bounds query
// on the new network — timed as one operation.
type opResult struct {
	tmpl   *reqTemplate
	model  *model // the queried model (the fresh one for uploads)
	status int
	body   []byte
	err    error
	// from is when the operation's latency clock starts: its due time,
	// or — when the generator slept and its timer woke late — the
	// moment it woke (see openLoop).
	from  time.Time
	start time.Time // when its first request was sent
	end   time.Time
	cold  time.Duration // upload: the first query on the new network
}

func (r *opResult) ok() bool { return r.err == nil && r.status/100 == 2 }

// pending is an operation prepared ahead of its send time: uploads
// generate their fresh network here, outside the timed interval.
type pending struct {
	tmpl  *reqTemplate
	fresh *model
}

func (e *env) prepare(t *reqTemplate, serial uint64) (pending, error) {
	p := pending{tmpl: t}
	if t.spec.route == "upload" {
		m, err := newModel(t.spec.model, rng.NewStream(e.seed^nsFresh, serial))
		if err != nil {
			return p, err
		}
		p.fresh = m
	}
	return p, nil
}

// send performs a prepared operation. req is the operation's trace
// request id; parent its enclosing span.
func (e *env) send(p pending, tr *tracer, parent, req int64) opResult {
	res := opResult{tmpl: p.tmpl, model: p.tmpl.model, start: time.Now()}
	if p.fresh == nil {
		res.status, res.body, res.err = e.post(p.tmpl.path, p.tmpl.body)
		res.end = time.Now()
		tr.add(tr.newID(), parent, req, "http."+p.tmpl.spec.route, res.start, res.end, 1)
		return res
	}
	res.model = p.fresh
	id, err := e.upload(p.fresh.doc)
	up := time.Now()
	tr.add(tr.newID(), parent, req, "http.upload", res.start, up, 1)
	if err != nil {
		res.err, res.end = err, up
		return res
	}
	p.fresh.id = id
	body, err := json.Marshal(map[string]any{"network_id": id, "faults": p.tmpl.spec.faults, "c": p.tmpl.spec.c})
	if err != nil {
		res.err, res.end = err, up
		return res
	}
	res.status, res.body, res.err = e.post("/v1/bounds", body)
	res.end = time.Now()
	res.cold = res.end.Sub(up)
	tr.add(tr.newID(), parent, req, "http.cold_bounds", up, res.end, 1)
	return res
}

// request prepares and sends one operation at once (warm-up, replays).
func (e *env) request(t *reqTemplate, serial uint64, tr *tracer) opResult {
	p, err := e.prepare(t, serial)
	if err != nil {
		return opResult{tmpl: t, err: err}
	}
	return e.send(p, tr, 0, 0)
}

// pick draws operation i's request type from the mix.
func (e *env) pick(ns uint64, i int) *reqTemplate {
	x := rng.NewStream(e.seed^ns, uint64(i)).Intn(e.weight)
	for _, t := range e.tmpls {
		if x < t.spec.weight {
			return t
		}
		x -= t.spec.weight
	}
	return e.tmpls[len(e.tmpls)-1]
}

// jobResult is one completed async job: submitted, followed with
// ?watch=1 to a terminal state, and its result fetched.
type jobResult struct {
	spec   *jobSpec
	model  *model
	submit []byte // the POST /v1/jobs body
	inner  []byte // its request document
	inputs [][]float64
	seed   uint64
	rec    jobs.Record // the terminal record
	result []byte
	err    error
	start  time.Time
	end    time.Time
}

func (j *jobResult) ok() bool { return j.err == nil && j.rec.State == jobs.StateDone }

// jobBody builds a job's request; serial seeds its inputs, so every
// job is distinct and the memo never answers it.
func (e *env) jobBody(s *jobSpec, serial uint64) (*jobResult, error) {
	m := e.models[s.model]
	if m == nil {
		return nil, fmt.Errorf("job cycle names unknown model %q", s.model)
	}
	j := &jobResult{spec: s, model: m}
	r := rng.NewStream(e.seed^nsJob, serial)
	req := map[string]any{"network_id": m.id, "faults": s.faults}
	switch s.kind {
	case "worstcase":
		j.inputs = randomInputs(r, wcInputs, m.m.Width(0))
		req["inputs"] = j.inputs
	case "montecarlo":
		j.inputs = randomInputs(r, mcInputs, m.m.Width(0))
		j.seed = r.Uint64()>>1 | 1
		req["inputs"], req["c"], req["trials"], req["seed"] = j.inputs, s.c, s.trials, j.seed
	default:
		return nil, fmt.Errorf("unknown job kind %q", s.kind)
	}
	var err error
	if j.inner, err = json.Marshal(req); err != nil {
		return nil, err
	}
	j.submit, err = json.Marshal(map[string]any{"kind": s.kind, "request": json.RawMessage(j.inner)})
	return j, err
}

// job runs one job to completion.
func (e *env) job(s *jobSpec, serial uint64, tr *tracer) *jobResult {
	j, err := e.jobBody(s, serial)
	if err != nil {
		return &jobResult{spec: s, err: err}
	}
	e.runJob(j, tr, int64(serial))
	return j
}

func (e *env) runJob(j *jobResult, tr *tracer, req int64) {
	root := tr.newID()
	j.start = time.Now()
	defer func() {
		j.end = time.Now()
		tr.add(root, 0, req, "loadgen.job."+j.spec.kind, j.start, j.end, 1)
	}()
	status, body, err := e.post("/v1/jobs", j.submit)
	submitted := time.Now()
	tr.add(tr.newID(), root, req, "http.job_submit", j.start, submitted, 1)
	if err != nil {
		j.err = err
		return
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		j.err = fmt.Errorf("submit: status %d: %s", status, truncate(body))
		return
	}
	if err := json.Unmarshal(body, &j.rec); err != nil {
		j.err = fmt.Errorf("submit response: %w", err)
		return
	}
	if !j.rec.State.Terminal() {
		if j.err = e.watch(&j.rec); j.err != nil {
			return
		}
	}
	watched := time.Now()
	// The job tier's own timestamps nest inside the watch: what remains
	// of it is the time to notice completion.
	watch := tr.newID()
	tr.add(watch, root, req, "http.job_watch", submitted, watched, 1)
	if !j.rec.Started.IsZero() && !j.rec.Finished.IsZero() {
		tr.add(tr.newID(), watch, req, "jobs.queue", j.rec.Created, j.rec.Started, 1)
		tr.add(tr.newID(), watch, req, "jobs.run", j.rec.Started, j.rec.Finished, 1)
	}
	if j.rec.State != jobs.StateDone {
		j.err = fmt.Errorf("job %s ended %s: %s", j.rec.ID, j.rec.State, j.rec.Error)
		return
	}
	status, j.result, err = e.do(http.MethodGet, "/v1/jobs/"+j.rec.ID+"/result", nil)
	tr.add(tr.newID(), root, req, "http.job_result", watched, time.Now(), 1)
	switch {
	case err != nil:
		j.err = err
	case status != http.StatusOK:
		j.err = fmt.Errorf("result: status %d: %s", status, truncate(j.result))
	}
}

// watch follows a job's NDJSON record stream until it terminates; the
// server closes a watch after its window, so watch again until then.
func (e *env) watch(rec *jobs.Record) error {
	for !rec.State.Terminal() {
		resp, err := e.client.Get(e.base + "/v1/jobs/" + rec.ID + "?watch=1")
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("watch: status %d", resp.StatusCode)
		}
		dec := json.NewDecoder(resp.Body)
		for !rec.State.Terminal() && dec.More() {
			if err := dec.Decode(rec); err != nil {
				resp.Body.Close()
				return fmt.Errorf("watch stream: %w", err)
			}
		}
		resp.Body.Close()
	}
	return nil
}

// phases holds everything one run of the phases produced.
type phases struct {
	open   []opResult
	lag    []time.Duration // open loop: how late the generator woke
	closed []opResult
	jobs   []*jobResult
	// CPU time the process was given during the closed-loop phase and
	// each job phase.
	closedCPU, wcCPU, mcCPU time.Duration
}

// runPhases drives the workload for seconds: the open-loop request
// phase, the closed-loop request phase and the two closed-loop job
// phases, each taking its share of the time.
func (e *env) runPhases(seconds float64, tr *tracer) *phases {
	dur := func(share float64) time.Duration {
		return time.Duration(share * seconds * float64(time.Second))
	}
	ph := &phases{}
	// Each phase starts from a collected heap, so none pays for the
	// garbage of the one before.
	runtime.GC()
	ph.open, ph.lag = e.openLoop(dur(e.w.split[0]), tr)
	runtime.GC()
	cpu := cpuTime()
	ph.closed = e.closedLoop(dur(e.w.split[1]), tr)
	ph.closedCPU = cpuTime() - cpu
	runtime.GC()
	cpu = cpuTime()
	ph.jobs = e.jobLoop("worstcase", dur(e.w.split[2]), tr)
	ph.wcCPU = cpuTime() - cpu
	runtime.GC()
	cpu = cpuTime()
	ph.jobs = append(ph.jobs, e.jobLoop("montecarlo", dur(e.w.split[3]), tr)...)
	ph.mcCPU = cpuTime() - cpu
	return ph
}

// openLoop sends operations on a fixed schedule at the workload's
// frozen rate, whatever the server's speed: operation i is due at
// start + i/rate. An operation picked up after its due time — every
// client was still busy — is timed from its due time, so a stall
// delays every operation behind it. An operation the client had to
// wait for is timed from when the client's timer woke: sleeps wake up
// to a millisecond late on the reference host, and that lateness is
// the generator's, reported apart as the lag. At most clients()
// operations are in flight.
func (e *env) openLoop(d time.Duration, tr *tracer) ([]opResult, []time.Duration) {
	n := int(d.Seconds() * e.w.rate)
	period := time.Duration(float64(time.Second) / e.w.rate)
	out := make([]opResult, n)
	lag := make([]time.Duration, n)
	slept := make([]bool, n)
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := e.pick(nsOpen, i)
				p, err := e.prepare(t, nsOpen|uint64(i))
				from := start.Add(time.Duration(i) * period)
				if wait := time.Until(from); wait > 0 {
					time.Sleep(wait)
					woke := time.Now()
					lag[i], slept[i] = woke.Sub(from), true
					from = woke
				}
				if err != nil {
					out[i] = opResult{tmpl: t, err: err, from: from, start: from, end: from}
					continue
				}
				root := tr.newID()
				out[i] = e.send(p, tr, root, int64(i))
				out[i].from = from
				tr.add(root, 0, int64(i), "loadgen.op."+t.spec.route, from, out[i].end, 1)
			}
		}()
	}
	wg.Wait()
	var woke []time.Duration
	for i, s := range slept {
		if s {
			woke = append(woke, lag[i])
		}
	}
	return out, woke
}

// closedLoop runs clients() connections back to back for d: each sends
// its next operation as soon as the previous one completes.
func (e *env) closedLoop(d time.Duration, tr *tracer) []opResult {
	var next atomic.Int64
	deadline := time.Now().Add(d)
	per := make([][]opResult, clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t := e.pick(nsClose, i)
				p, err := e.prepare(t, nsClose|uint64(i))
				if err != nil {
					now := time.Now()
					per[c] = append(per[c], opResult{tmpl: t, err: err, start: now, end: now})
					continue
				}
				root := tr.newID()
				r := e.send(p, tr, root, int64(i))
				r.from = r.start
				tr.add(root, 0, int64(i), "loadgen.op."+t.spec.route, r.start, r.end, 1)
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var out []opResult
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// jobLoop runs clients() submitters back to back for d, together
// walking the slots of the job cycle of one kind.
func (e *env) jobLoop(kind string, d time.Duration, tr *tracer) []*jobResult {
	var cycle []*jobSpec
	for i := range e.w.jobs {
		if e.w.jobs[i].kind == kind {
			cycle = append(cycle, &e.w.jobs[i])
		}
	}
	// Serials are unique across both job phases.
	base := uint64(0)
	if kind == "montecarlo" {
		base = 1 << 32
	}
	var next atomic.Int64
	deadline := time.Now().Add(d)
	per := make([][]*jobResult, clients())
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				per[c] = append(per[c], e.job(cycle[i%len(cycle)], base+uint64(i), tr))
			}
		}(c)
	}
	wg.Wait()
	var out []*jobResult
	for _, js := range per {
		out = append(out, js...)
	}
	return out
}
