package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/activation"
	"repro/internal/jobs"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
)

// crashJobs are the campaigns the crash test runs, in order, on three
// inputs: a Monte Carlo profile and a worst-case sweep (1,848
// configurations) that checkpoint three times each at 32 trials (512
// configurations) a chunk.
var crashJobs = []struct{ kind, request string }{
	{"montecarlo", `{"network_id": %q, "faults": [1, 2], "c": 0.5, "trials": 128, "seed": 5, "inputs": [[0.1, 0.2], [0.7, 0.4], [0.3, 0.9]]}`},
	{"worstcase", `{"network_id": %q, "faults": [2, 2], "model": "crash", "inputs": [[0.1, 0.2], [0.7, 0.4], [0.3, 0.9]]}`},
}

var errCrash = errors.New("crashed")

// crashOutcome is what one run leaves behind: each job's ResultID and
// result document, and the IDs the store lists.
type crashOutcome struct {
	resultIDs []string
	results   [][]byte
	listed    []string
}

// crashServer opens the store in dir and starts a server over it with
// one job worker, so the jobs' writes happen in one order.
func crashServer(t *testing.T, dir string) (*store.Store, *serve.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 1, JobWorkers: 1, JobCheckpointTrials: 32})
	if err != nil {
		t.Fatal(err)
	}
	return st, srv
}

func crashDo(t *testing.T, srv *serve.Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// runCrashJobs submits the crash jobs one after another and waits for
// each to finish, or — once stop reports true — returns early.
func runCrashJobs(t *testing.T, srv *serve.Server, netID string, stop func() bool) (recs []jobs.Record, stopped bool) {
	t.Helper()
	for _, cj := range crashJobs {
		body := fmt.Sprintf(`{"kind": %q, "request": %s}`, cj.kind, fmt.Sprintf(cj.request, netID))
		rec := crashDo(t, srv, "POST", "/v1/jobs", body)
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
			t.Fatalf("submit %s: status %d: %s", cj.kind, rec.Code, rec.Body.Bytes())
		}
		var jr jobs.Record
		if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(60 * time.Second); !jr.State.Terminal(); time.Sleep(time.Millisecond) {
			if stop() {
				return recs, true
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s job never finished (last %+v)", cj.kind, jr)
			}
			rec := crashDo(t, srv, "GET", "/v1/jobs/"+jr.ID, "")
			if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
				t.Fatal(err)
			}
		}
		recs = append(recs, jr)
		if stop() {
			return recs, true
		}
	}
	return recs, false
}

// finish runs the crash jobs to completion and collects the outcome.
func finish(t *testing.T, st *store.Store, srv *serve.Server, netID string) crashOutcome {
	t.Helper()
	recs, _ := runCrashJobs(t, srv, netID, func() bool { return false })
	var out crashOutcome
	for i, jr := range recs {
		if jr.State != jobs.StateDone {
			t.Fatalf("%s job ended %s (%s)", crashJobs[i].kind, jr.State, jr.Error)
		}
		res := crashDo(t, srv, "GET", "/v1/jobs/"+jr.ID+"/result", "")
		if res.Code != http.StatusOK {
			t.Fatalf("%s result: status %d: %s", crashJobs[i].kind, res.Code, res.Body.Bytes())
		}
		out.resultIDs = append(out.resultIDs, jr.ResultID)
		out.results = append(out.results, res.Body.Bytes())
	}
	for _, e := range st.List("") {
		out.listed = append(out.listed, e.ID)
	}
	sort.Strings(out.listed)
	return out
}

// TestCrashAtEveryWrite crashes the store at each of its writes while a
// fresh store takes a network upload (whose Put writes the first
// snapshot), a Monte Carlo job and a worst-case job (whose result's Put
// folds the journal into that snapshot) — every atomicWrite
// and every journal append, one crash point per run — then reopens the
// store, resumes, and requires the uncrashed run's ResultIDs and result
// bytes, a manifest.json that heals itself, and every artifact listed.
func TestCrashAtEveryWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both jobs once per write")
	}
	net := nn.NewRandom(rng.New(3), nn.Config{
		InputDim: 2,
		Widths:   []int{12, 8},
		Act:      activation.NewSigmoid(1),
		Bias:     true,
	}, 1.2)
	// Fold whenever the journal holds two records: the worst-case
	// result's Put then folds into an existing snapshot.
	defer store.SetFoldMin(store.SetFoldMin(2))
	var writes atomic.Int64
	// run uploads the network into a fresh store and executes the jobs,
	// crashing at write k (never when k is 0); it then resumes — uploads
	// again, which is a no-op if the first upload survived, and
	// resubmits — and returns the outcome and the crashed run's writes.
	run := func(k int64) (crashOutcome, int64) {
		dir := t.TempDir()
		st, srv := crashServer(t, dir)
		writes.Store(0)
		store.SetWriteFault(func() error {
			if n := writes.Add(1); k > 0 && n >= k {
				return errCrash
			}
			return nil
		})
		tripped := func() bool { return k > 0 && writes.Load() >= k }
		crashed := false
		if entry, err := st.PutNetwork(net, nil); err != nil {
			if !tripped() {
				t.Fatal(err)
			}
			crashed = true
		} else {
			_, crashed = runCrashJobs(t, srv, entry.ID, tripped)
		}
		srv.Close()
		store.SetWriteFault(nil)
		total := writes.Load()
		if k > 0 && !crashed {
			t.Fatalf("k=%d: the run finished after %d writes without reaching the crash", k, total)
		}

		st, srv = crashServer(t, dir)
		defer srv.Close()
		entry, err := st.PutNetwork(net, nil)
		if err != nil {
			t.Fatalf("k=%d: upload after crash: %v", k, err)
		}
		out := finish(t, st, srv, entry.ID)
		// The snapshot heals: a fresh Open folds every record into a
		// manifest.json that parses and indexes every artifact.
		srv.Close()
		if _, err := store.Open(dir); err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatalf("k=%d: manifest.json: %v", k, err)
		}
		var m struct {
			Entries []store.Entry `json:"entries"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("k=%d: manifest.json does not parse: %v", k, err)
		}
		indexed := map[string]bool{}
		for _, e := range m.Entries {
			indexed[e.ID] = true
		}
		for _, id := range out.listed {
			if !indexed[id] {
				t.Fatalf("k=%d: manifest.json lacks %s", k, id[:12])
			}
		}
		return out, total
	}

	ref, total := run(0)
	if len(ref.listed) != 1+len(crashJobs) {
		t.Fatalf("uncrashed run lists %d artifacts, want %d", len(ref.listed), 1+len(crashJobs))
	}
	t.Logf("the run makes %d writes", total)
	for k := int64(1); k <= total; k++ {
		got, _ := run(k)
		for i := range crashJobs {
			if got.resultIDs[i] != ref.resultIDs[i] {
				t.Fatalf("k=%d: %s ResultID %s, uncrashed %s", k, crashJobs[i].kind, got.resultIDs[i], ref.resultIDs[i])
			}
			if !bytes.Equal(got.results[i], ref.results[i]) {
				t.Fatalf("k=%d: %s result differs from the uncrashed run:\n%s\nvs\n%s", k, crashJobs[i].kind, got.results[i], ref.results[i])
			}
		}
		if fmt.Sprint(got.listed) != fmt.Sprint(ref.listed) {
			t.Fatalf("k=%d: store lists %v, uncrashed %v", k, got.listed, ref.listed)
		}
	}
}
