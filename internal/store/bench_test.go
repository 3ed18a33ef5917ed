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

// BenchmarkStorePut measures storing one new artifact into a store that
// already holds 100, 1,000 or 10,000: every Put re-reads and re-parses
// the whole manifest, then rewrites it. The pre-existing artifacts are
// written as object files and indexed by the self-healing Open, so the
// setup stays linear. manifest-KB is the manifest's size at the end.
func BenchmarkStorePut(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("existing=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			created := time.Now().UTC().Truncate(time.Second)
			for k := 0; k < n; k++ {
				data := benchArtifact(k)
				id := ID(data)
				sidecar, _ := json.MarshalIndent(Entry{ID: id, Kind: "result", Created: created, Bytes: len(data), Meta: map[string]string{"kind": "montecarlo"}}, "", " ")
				obj := filepath.Join(dir, "objects", id[:2], id+".json")
				if err := os.MkdirAll(filepath.Dir(obj), 0o755); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(obj, data, 0o644); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "objects", id[:2], id+".entry.json"), sidecar, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			s, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			if got := len(s.List("")); got != n {
				b.Fatalf("store indexed %d artifacts, want %d", got, n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.PutRaw("result", benchArtifact(n+i), map[string]string{"kind": "montecarlo"}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if info, err := os.Stat(s.manifestPath()); err == nil {
				b.ReportMetric(float64(info.Size())/1024, "manifest-KB")
			}
		})
	}
}
