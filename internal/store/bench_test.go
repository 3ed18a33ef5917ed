package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchArtifact is a job-result-sized document, distinct per k.
func benchArtifact(k int) []byte {
	data, _ := json.Marshal(map[string]any{"job": k, "trials": 64, "max": 0.125 + float64(k)*1e-9, "mean": 0.03125})
	return data
}

// seedStore opens the store in dir holding artifacts 0..n-1. They are
// written as object files and indexed by the self-healing Open (the
// snapshot is removed first), so the setup stays linear. All 256
// object shard directories exist, as in any store past a few hundred
// artifacts, so a timed Put never pays for creating one.
func seedStore(tb testing.TB, dir string, n int) *Store {
	tb.Helper()
	for aa := 0; aa < 256; aa++ {
		if err := os.MkdirAll(filepath.Join(dir, "objects", fmt.Sprintf("%02x", aa)), 0o755); err != nil {
			tb.Fatal(err)
		}
	}
	created := time.Now().UTC().Truncate(time.Second)
	for k := 0; k < n; k++ {
		data := benchArtifact(k)
		id := ID(data)
		sidecar, _ := json.MarshalIndent(Entry{ID: id, Kind: "result", Created: created, Bytes: len(data), Meta: map[string]string{"kind": "montecarlo"}}, "", " ")
		shard := filepath.Join(dir, "objects", id[:2])
		if err := os.WriteFile(filepath.Join(shard, id+".json"), data, 0o644); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, id+".entry.json"), sidecar, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil && !os.IsNotExist(err) {
		tb.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if got := len(s.List("")); got != n {
		tb.Fatalf("store indexed %d artifacts, want %d", got, n)
	}
	return s
}

// putNew stores puts new artifacts into s, numbered from first, and
// returns the mean wall time per Put.
func putNew(tb testing.TB, s *Store, first, puts int) time.Duration {
	tb.Helper()
	start := time.Now()
	for i := 0; i < puts; i++ {
		if _, err := s.PutRaw("result", benchArtifact(first+i), map[string]string{"kind": "montecarlo"}); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start) / time.Duration(puts)
}

// BenchmarkStorePut measures storing one new artifact into a store that
// already holds 100, 1,000 or 10,000: a Put writes the object and its
// sidecar and appends one journal line, and every max(256, snapshot
// size) Puts one of them folds the journal into manifest.json. Run it at
// a -benchtime that crosses a fold on every size (-benchtime=10000x) to
// include the folds' amortised cost. manifest-KB is the snapshot's size
// at the end, without the journal.
func BenchmarkStorePut(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("existing=%d", n), func(b *testing.B) {
			s := seedStore(b, b.TempDir(), n)
			b.ResetTimer()
			putNew(b, s, n, b.N)
			b.StopTimer()
			if info, err := os.Stat(s.manifestPath()); err == nil {
				b.ReportMetric(float64(info.Size())/1024, "manifest-KB")
			}
		})
	}
}

// TestStorePutFlatSmoke gates the store's O(1) Put: a Put into a store
// of 10,000 artifacts may cost at most 3x a Put into one of 100, folds
// included. Each side stores enough artifacts to cross at least one
// fold (the 10,000 side folds once its journal holds 10,000 records).
// Both sides run in one directory tree: file creation costs differ
// between directories on some file systems by far more than 3x, and
// that is not the store's to gate. A store that rewrote its whole index
// per Put measured about 60x.
func TestStorePutFlatSmoke(t *testing.T) {
	if os.Getenv("NEUROFAIL_BENCH_STORE") == "" {
		t.Skip("timing smoke; run via make bench-store (NEUROFAIL_BENCH_STORE=1)")
	}
	dir := t.TempDir()
	small := putNew(t, seedStore(t, dir, 100), 100, 1000)
	large := putNew(t, seedStore(t, dir, 10000), 10000, 10000)
	ratio := float64(large) / float64(small)
	t.Logf("Put: %v with 100 existing, %v with 10,000 (%.2fx)", small, large, ratio)
	if ratio > 3 {
		t.Fatalf("Put with 10,000 existing artifacts costs %.2fx Put with 100 (limit 3x): Put is no longer O(1) in the store size", ratio)
	}
}
