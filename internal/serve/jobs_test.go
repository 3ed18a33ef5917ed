package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/rng"
	"repro/internal/store"
)

// jobServer builds a Server over a fresh store holding one test
// network, with the given job-tier sizing.
func jobServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entry, err := st.PutNetwork(testNet(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	s := mustNew(t, cfg)
	t.Cleanup(s.Close)
	return s, entry.ID
}

// doRec issues a request against the in-process handler and returns
// the recorder (status, headers and body).
func doRec(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// submitJob posts a job and decodes the returned record.
func submitJob(t *testing.T, s *Server, kind, request string) (jobs.Record, *httptest.ResponseRecorder) {
	t.Helper()
	rec := doRec(t, s, "POST", "/v1/jobs",
		fmt.Sprintf(`{"kind": %q, "request": %s}`, kind, request))
	var jr jobs.Record
	if rec.Code == http.StatusAccepted || rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
			t.Fatalf("job record: %v\n%s", err, rec.Body.Bytes())
		}
	}
	return jr, rec
}

// pollJob polls a job until pred holds, failing after a deadline.
func pollJob(t *testing.T, s *Server, id string, pred func(jobs.Record) bool) jobs.Record {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var jr jobs.Record
	for time.Now().Before(deadline) {
		rec := doRec(t, s, "GET", "/v1/jobs/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET job: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
		if pred(jr) {
			return jr
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never satisfied predicate (last: %+v)", id, jr)
	return jr
}

// TestMonteCarloRangeSplitDeterministic is the resume-correctness
// kernel: a campaign computed in arbitrary splits over mcRange is
// bit-identical to one full sweep, because trial t depends only on
// (seed, t).
func TestMonteCarloRangeSplitDeterministic(t *testing.T) {
	s, id := jobServer(t, Config{Workers: 4})
	cn, err := s.storedNetwork(id)
	if err != nil {
		t.Fatal(err)
	}
	_, traces := cn.standardInputs()
	const trials = 700
	faults := []int{1, 1}
	full := make([]float64, trials)
	if err := s.mcRange(context.Background(), cn, faults, 1, traces, 42, 0, full); err != nil {
		t.Fatal(err)
	}
	split := make([]float64, trials)
	cuts := []int{0, 137, 138, 400, trials}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if err := s.mcRange(context.Background(), cn, faults, 1, traces, 42, lo, split[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range full {
		if full[i] != split[i] {
			t.Fatalf("trial %d differs across splits: %g vs %g", i, full[i], split[i])
		}
	}
}

// TestJobSubmitPollResult runs a Monte Carlo campaign through the job
// tier and checks its result agrees with the synchronous path.
func TestJobSubmitPollResult(t *testing.T) {
	s, id := jobServer(t, Config{JobCheckpointTrials: 64})
	request := fmt.Sprintf(`{"network_id": %q, "faults": 1, "c": 1, "trials": 300, "seed": 11}`, id)

	jr, rec := submitJob(t, s, "montecarlo", request)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.Bytes())
	}
	final := pollJob(t, s, jr.ID, func(r jobs.Record) bool { return r.State.Terminal() })
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.Completed != 300 || final.Total != 300 {
		t.Fatalf("progress = %d/%d, want 300/300", final.Completed, final.Total)
	}

	res := doRec(t, s, "GET", "/v1/jobs/"+jr.ID+"/result", nil)
	if res.Code != http.StatusOK {
		t.Fatalf("result status %d: %s", res.Code, res.Body.Bytes())
	}
	var async map[string]any
	if err := json.Unmarshal(res.Body.Bytes(), &async); err != nil {
		t.Fatal(err)
	}

	sync := doRec(t, s, "POST", "/v1/montecarlo", request)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync status %d: %s", sync.Code, sync.Body.Bytes())
	}
	var syncResp map[string]any
	if err := json.Unmarshal(sync.Body.Bytes(), &syncResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(async, syncResp) {
		t.Fatalf("async result differs from sync path:\n%v\nvs\n%v", async, syncResp)
	}
}

// TestJobMemoizedDuplicate: an identical resubmission is answered from
// the memo index — HTTP 200, Memoized set, no second campaign.
func TestJobMemoizedDuplicate(t *testing.T) {
	s, id := jobServer(t, Config{})
	request := fmt.Sprintf(`{"network_id": %q, "trials": 200, "seed": 5}`, id)

	first, rec := submitJob(t, s, "montecarlo", request)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.Bytes())
	}
	done := pollJob(t, s, first.ID, func(r jobs.Record) bool { return r.State.Terminal() })
	if done.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}

	dup, rec2 := submitJob(t, s, "montecarlo", request)
	if rec2.Code != http.StatusOK {
		t.Fatalf("memoized submit status %d, want 200: %s", rec2.Code, rec2.Body.Bytes())
	}
	if !dup.Memoized || dup.State != jobs.StateDone || dup.ResultID != done.ResultID {
		t.Fatalf("memoized record = %+v", dup)
	}
	// No second job was created.
	var list struct {
		Jobs []jobs.Record `json:"jobs"`
	}
	lr := doRec(t, s, "GET", "/v1/jobs", nil)
	if err := json.Unmarshal(lr.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 {
		t.Fatalf("%d jobs exist after memoized resubmit, want 1", len(list.Jobs))
	}
}

// slowCampaign is a request big enough to keep a worker busy for a
// while: the given trial count over 50 explicit inputs.
func slowCampaign(id string, seed uint64, trials int) string {
	pts := metricsPoints(50)
	data, _ := json.Marshal(pts)
	return fmt.Sprintf(`{"network_id": %q, "trials": %d, "seed": %d, "inputs": %s}`,
		id, trials, seed, data)
}

func metricsPoints(n int) [][]float64 {
	r := rng.New(99)
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{r.Float64()*2 - 1, r.Float64()*2 - 1}
	}
	return out
}

// TestJobQueueFullBackpressure: with one worker and one queue slot, a
// third concurrent campaign is rejected with 429 + Retry-After.
func TestJobQueueFullBackpressure(t *testing.T) {
	s, id := jobServer(t, Config{Workers: 2, JobWorkers: 1, JobQueue: 1})

	j1, rec1 := submitJob(t, s, "montecarlo", slowCampaign(id, 1, maxTrials))
	if rec1.Code != http.StatusAccepted {
		t.Fatalf("submit 1 status %d: %s", rec1.Code, rec1.Body.Bytes())
	}
	pollJob(t, s, j1.ID, func(r jobs.Record) bool { return r.State == jobs.StateRunning })

	j2, rec2 := submitJob(t, s, "montecarlo", slowCampaign(id, 2, maxTrials))
	if rec2.Code != http.StatusAccepted {
		t.Fatalf("submit 2 status %d: %s", rec2.Code, rec2.Body.Bytes())
	}

	_, rec3 := submitJob(t, s, "montecarlo", slowCampaign(id, 3, maxTrials))
	if rec3.Code != http.StatusTooManyRequests {
		t.Fatalf("submit 3 status %d, want 429: %s", rec3.Code, rec3.Body.Bytes())
	}
	if ra := rec3.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}

	// Cancel both; the running one unwinds between trials.
	for _, jid := range []string{j2.ID, j1.ID} {
		cr := doRec(t, s, "POST", "/v1/jobs/"+jid+"/cancel", nil)
		if cr.Code != http.StatusOK {
			t.Fatalf("cancel status %d: %s", cr.Code, cr.Body.Bytes())
		}
	}
	pollJob(t, s, j1.ID, func(r jobs.Record) bool { return r.State == jobs.StateCancelled })
	pollJob(t, s, j2.ID, func(r jobs.Record) bool { return r.State == jobs.StateCancelled })
}

// TestJobValidation: submissions fail fast with client errors instead
// of failing asynchronously — everything the synchronous route rejects
// is rejected at submit.
func TestJobValidation(t *testing.T) {
	s, id := jobServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"unknown kind", `{"kind": "frobnicate", "request": {}}`, 400},
		{"missing kind", `{"request": {}}`, 400},
		{"bad trials", fmt.Sprintf(`{"kind": "montecarlo", "request": {"network_id": %q, "trials": -4}}`, id), 400},
		{"unknown network", `{"kind": "bounds", "request": {"network_id": "feedfeed"}}`, 404},
		{"unknown experiment", `{"kind": "experiments", "request": {"ids": ["ZZ9"]}}`, 400},
		{"unknown field", fmt.Sprintf(`{"kind": "montecarlo", "request": {"network_id": %q, "trails": 7}}`, id), 400},
		{"bounds negative c", fmt.Sprintf(`{"kind": "bounds", "request": {"network_id": %q, "c": -1}}`, id), 400},
		{"inject negative c", fmt.Sprintf(`{"kind": "inject", "request": {"network_id": %q, "c": -1}}`, id), 400},
		{"eval input dimension", fmt.Sprintf(`{"kind": "eval", "request": {"network_id": %q, "inputs": [[1, 2, 3, 4, 5]]}}`, id), 400},
		{"inject bitflip width", fmt.Sprintf(`{"kind": "inject", "request": {"network_id": %q, "model": "bitflip", "bits": 1}}`, id), 400},
	} {
		rec := doRec(t, s, "POST", "/v1/jobs", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body.Bytes())
		}
	}

	// Storeless servers have no job tier.
	storeless := mustNew(t, Config{})
	defer storeless.Close()
	rec := doRec(t, storeless, "POST", "/v1/jobs", `{"kind": "bounds", "request": {}}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("storeless submit status %d, want 503", rec.Code)
	}
}

// memoPinRequests returns one fixed request per job kind against the
// stored test network id.
func memoPinRequests(id string) []struct{ kind, request string } {
	return []struct{ kind, request string }{
		{jobKindEval, fmt.Sprintf(`{"network_id": %q, "inputs": [[0.1, 0.2], [0.7, 0.4]]}`, id)},
		{jobKindBounds, fmt.Sprintf(`{"network_id": %q, "faults": [2, 1], "eps": 3}`, id)},
		{jobKindInject, fmt.Sprintf(`{"network_id": %q, "faults": 1, "model": "bitflip", "bit": 3}`, id)},
		{jobKindMonteCarlo, fmt.Sprintf(`{"network_id": %q, "faults": [1, 2], "c": 0.5}`, id)},
		{jobKindWorstCase, fmt.Sprintf(`{"network_id": %q, "faults": 1, "model": "stuck"}`, id)},
		{jobKindExperiments, `{"ids": ["L1"]}`},
	}
}

// TestMemoKeysStable pins the memo key of one fixed request per job
// kind: results memoized by earlier builds stay valid only while the
// resolved canonical form hashes to the same bytes.
func TestMemoKeysStable(t *testing.T) {
	s, id := jobServer(t, Config{})
	want := map[string]string{
		jobKindEval:        "a1c38ac3791264c36919b9e2efd4f4d186c5f9cecbafd6efed46b9029efacb6a",
		jobKindBounds:      "5c44072178ebcc6f19aee83feb6d2a1c9852be49583f13c7169eab12eef01c01",
		jobKindInject:      "247082ecc16bc09130bb92c724cb18b83c39f3fb42113b903d83750876db8114",
		jobKindMonteCarlo:  "456cad9e633908976741d95578d011df27663fd7534953c959cca312e249ec19",
		jobKindWorstCase:   "85387f8eb53b501aad0206e7baed2b85a5530d200e4b20cdc42674b81fd22c50",
		jobKindExperiments: "3490618bb7dcab768ff0fb862d1f65a6c3a5ef435a15617a5b7c466b763e240b",
	}
	for _, tc := range memoPinRequests(id) {
		key, err := s.validateJob(tc.kind, json.RawMessage(tc.request))
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if key != want[tc.kind] {
			t.Errorf("%s memo key %s, want %s", tc.kind, key, want[tc.kind])
		}
	}
}

// TestJobBodyLimit: control-plane routes cap their request bodies; an
// oversized document is 413, not an async failure.
func TestJobBodyLimit(t *testing.T) {
	s, _ := jobServer(t, Config{})
	big := `{"network_id": "` + strings.Repeat("a", smallBodyBytes+1024) + `"}`
	rec := doRec(t, s, "POST", "/v1/quantize", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized quantize status %d, want 413", rec.Code)
	}
}

// TestJobWatchStream: ?watch=1 streams NDJSON records ending with the
// terminal one.
func TestJobWatchStream(t *testing.T) {
	s, id := jobServer(t, Config{JobCheckpointTrials: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jr, rec := submitJob(t, s, "montecarlo",
		fmt.Sprintf(`{"network_id": %q, "trials": 400, "seed": 3}`, id))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.Bytes())
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	var last jobs.Record
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("watch line %d: %v: %s", n, err, sc.Bytes())
		}
		n++
	}
	if n == 0 {
		t.Fatal("watch streamed no records")
	}
	if !last.State.Terminal() {
		t.Fatalf("watch ended on non-terminal state %s after %d records", last.State, n)
	}
}

// TestJobDrainResumeAcrossServers is the process-restart path over
// HTTP: server A's drain interrupts a campaign mid-flight and parks it
// durably; server B over the same store resumes it and produces a
// result bit-identical to an uninterrupted run on a fresh store.
func TestJobDrainResumeAcrossServers(t *testing.T) {
	dir := t.TempDir()
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := stA.PutNetwork(testNet(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	request := slowCampaign(entry.ID, 77, 20000)

	a := mustNew(t, Config{Store: stA, JobWorkers: 1, JobCheckpointTrials: 256})
	jr, rec := submitJob(t, a, "montecarlo", request)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.Bytes())
	}
	// Wait for durable partial state, then drain mid-campaign.
	pollJob(t, a, jr.ID, func(r jobs.Record) bool { return r.Checkpoints >= 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Draining rejects new submissions.
	if _, rec := submitJob(t, a, "montecarlo", request); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", rec.Code)
	}
	a.Close()

	var parked jobs.Record
	if ok, err := stA.JobRecord(jr.ID, &parked); err != nil || !ok {
		t.Fatalf("parked record: %v %v", ok, err)
	}
	if parked.State != jobs.StateCheckpointed {
		t.Fatalf("parked state = %s, want checkpointed", parked.State)
	}
	if parked.Completed == 0 || parked.Completed >= parked.Total {
		t.Fatalf("parked mid-campaign progress = %d/%d", parked.Completed, parked.Total)
	}

	// Server B recovers the store and finishes the campaign.
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := mustNew(t, Config{Store: stB, JobWorkers: 1, JobCheckpointTrials: 256})
	defer b.Close()
	final := pollJob(t, b, jr.ID, func(r jobs.Record) bool { return r.State.Terminal() })
	if final.State != jobs.StateDone {
		t.Fatalf("resumed job ended %s (%s)", final.State, final.Error)
	}
	resumed := doRec(t, b, "GET", "/v1/jobs/"+jr.ID+"/result", nil)
	if resumed.Code != http.StatusOK {
		t.Fatalf("resumed result status %d: %s", resumed.Code, resumed.Body.Bytes())
	}

	// Reference: the same campaign, uninterrupted, on a fresh store.
	stC, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stC.PutNetwork(testNet(1), nil); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Config{Store: stC, JobWorkers: 1, JobCheckpointTrials: 256})
	defer c.Close()
	ref, rc := submitJob(t, c, "montecarlo", request)
	if rc.Code != http.StatusAccepted {
		t.Fatalf("reference submit status %d: %s", rc.Code, rc.Body.Bytes())
	}
	refFinal := pollJob(t, c, ref.ID, func(r jobs.Record) bool { return r.State.Terminal() })
	if refFinal.State != jobs.StateDone {
		t.Fatalf("reference ended %s (%s)", refFinal.State, refFinal.Error)
	}
	refRes := doRec(t, c, "GET", "/v1/jobs/"+ref.ID+"/result", nil)

	if !bytes.Equal(resumed.Body.Bytes(), refRes.Body.Bytes()) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\nvs\n%s",
			resumed.Body.Bytes(), refRes.Body.Bytes())
	}
	// Same content address too: the artifacts are identical objects.
	if final.ResultID != refFinal.ResultID {
		t.Fatalf("result content addresses differ: %s vs %s", final.ResultID, refFinal.ResultID)
	}
}
