package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// TestNetCacheBounded uploads more networks than the cache holds. The
// cache stays within maxCachedNets; a network queried once since its
// upload is evicted before networks queries return to; and an evicted
// network reloads from the store and answers bounds, inject and Monte
// Carlo byte for byte as before its eviction, also when several
// requests miss on it at once.
func TestNetCacheBounded(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Store: st, Workers: 1})
	defer s.Close()
	upload := func(seed uint64) string {
		data, err := json.Marshal(testNet(seed))
		if err != nil {
			t.Fatal(err)
		}
		var up struct {
			ID string `json:"id"`
		}
		if code := do(t, s, "POST", "/v1/networks", string(data), &up); code != http.StatusCreated {
			t.Fatalf("upload %d: status %d", seed, code)
		}
		return up.ID
	}
	query := func(path, body string) string {
		rec := doRec(t, s, "POST", path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.String()
	}
	queries := func(id string) []string {
		return []string{
			query("/v1/bounds", fmt.Sprintf(`{"network_id": %q, "faults": [2, 1], "c": 0.5, "eps": 3}`, id)),
			query("/v1/inject", fmt.Sprintf(`{"network_id": %q, "faults": 2, "model": "byzantine", "c": 0.5}`, id)),
			query("/v1/montecarlo", fmt.Sprintf(`{"network_id": %q, "faults": [1, 1], "c": 0.5, "trials": 64}`, id)),
		}
	}
	cached := func(id string) bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.nets[id] != nil
	}

	evicted := upload(1)
	before := queries(evicted)
	// Every later network is queried twice, so the least recently used
	// of all — the first — goes first.
	var last string
	for seed := uint64(2); seed < maxCachedNets+9; seed++ {
		last = upload(seed)
		for i := 0; i < 2; i++ {
			query("/v1/bounds", fmt.Sprintf(`{"network_id": %q, "faults": 1}`, last))
		}
	}
	if n := s.cachedNetworks(); n != maxCachedNets {
		t.Fatalf("cache holds %d networks after %d uploads, want %d", n, maxCachedNets+7, maxCachedNets)
	}
	if cached(evicted) {
		t.Fatal("the least recently used network survived the evictions")
	}
	// Uploads queried at most once recycle among themselves.
	once := upload(1000)
	query("/v1/bounds", fmt.Sprintf(`{"network_id": %q, "faults": 1}`, once))
	upload(1001)
	if cached(once) || !cached(last) {
		t.Fatalf("after a second one-off upload: first one-off cached = %v, twice-queried network cached = %v", cached(once), cached(last))
	}
	// Concurrent misses on the evicted network share one reload.
	body := fmt.Sprintf(`{"network_id": %q, "faults": [2, 1], "c": 0.5, "eps": 3}`, evicted)
	answers := make([]string, 8)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/bounds", strings.NewReader(body)))
			answers[i] = rec.Body.String()
		}(i)
	}
	wg.Wait()
	for _, a := range answers {
		if a != before[0] {
			t.Fatalf("concurrent reload answered\n%s\nwant\n%s", a, before[0])
		}
	}
	if n := len(s.loads); n != 0 {
		t.Fatalf("%d loads still registered after the reload", n)
	}
	after := queries(evicted)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("evicted network answers differently after reload:\n%s\nvs\n%s", after[i], before[i])
		}
	}
}
