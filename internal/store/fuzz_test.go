package store_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// FuzzOpenManifest feeds arbitrary bytes to the store as its on-disk
// manifest. The manifest is a derived index over the object tree, so a
// corrupt one must never panic or brick the store: Open must succeed,
// self-heal by rebuilding from the objects, and keep every committed
// artifact reachable.
func FuzzOpenManifest(f *testing.F) {
	f.Add([]byte(`{"entries":[]}`))
	f.Add([]byte(`{"entries":[{"id":"deadbeef","kind":"network","bytes":12}]}`))
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`garbage`))
	f.Add([]byte(``))
	f.Add([]byte(`{"entries":[{"id":""}]}`))

	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()

		// Commit one artifact through the real API so the object tree
		// holds ground truth the fuzzed manifest cannot invent.
		s, err := store.Open(dir)
		if err != nil {
			t.Fatalf("fresh open: %v", err)
		}
		entry, err := s.PutRaw(store.KindOutcomes, []byte(`{"kept":true}`), map[string]string{"origin": "fuzz"})
		if err != nil {
			t.Fatalf("put: %v", err)
		}

		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
			t.Fatalf("write manifest: %v", err)
		}
		s2, err := store.Open(dir)
		if err != nil {
			t.Fatalf("open with fuzzed manifest: %v", err)
		}
		// A manifest that fails to parse triggers the rebuild path, and
		// rebuild recovers from the object tree — the artifact must come
		// back. A manifest that parses is trusted as the index, so the
		// artifact is only guaranteed when the rebuild ran; either way
		// the lookup must fail cleanly, not panic.
		var m struct {
			Entries []json.RawMessage `json:"entries"`
		}
		rebuilt := json.Unmarshal(manifest, &m) != nil
		data, _, err := s2.Raw(entry.ID)
		if rebuilt && err != nil {
			t.Fatalf("artifact lost after manifest rebuild: %v", err)
		}
		if err == nil && string(data) != `{"kept":true}` {
			t.Fatalf("artifact bytes corrupted: %q", data)
		}
		s2.List("")
	})
}

// FuzzOpenJournal appends arbitrary bytes to the manifest journal after
// the records of committed artifacts — torn lines, duplicates, entries
// whose objects are missing. Open must never fail or panic, every
// committed artifact stays reachable, and a Put after the damage is
// indexed too.
func FuzzOpenJournal(f *testing.F) {
	id := store.ID([]byte(`{"kept":2}`))
	f.Add([]byte(`{"id":"` + id + `","kind":"network"}` + "\n"))
	f.Add([]byte(`{"id":"` + id[:40]))
	f.Add([]byte(`{"id":"` + strings.Repeat("ab", 32) + `","kind":"outcomes","bytes":3}` + "\n"))
	f.Add([]byte("\n\n{}\n[]\nnull\n"))
	f.Add([]byte(`{"id":"` + strings.Repeat("0", 64) + `","kind":"x","created":"2024-01-01T00:00:00Z"}` + "\n" + `{"id":`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		s, err := store.Open(dir)
		if err != nil {
			t.Fatalf("fresh open: %v", err)
		}
		// The first Put writes the snapshot, the second only the journal.
		want := map[string]string{}
		for _, doc := range []string{`{"kept":1}`, `{"kept":2}`} {
			e, err := s.PutRaw(store.KindOutcomes, []byte(doc), nil)
			if err != nil {
				t.Fatalf("put: %v", err)
			}
			want[e.ID] = doc
		}
		j, err := os.OpenFile(filepath.Join(dir, "manifest.journal"), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Write(tail); err != nil {
			t.Fatal(err)
		}
		j.Close()

		s2, err := store.Open(dir)
		if err != nil {
			t.Fatalf("open with fuzzed journal: %v", err)
		}
		e, err := s2.PutRaw(store.KindOutcomes, []byte(`{"kept":3}`), nil)
		if err != nil {
			t.Fatalf("put after fuzzed journal: %v", err)
		}
		want[e.ID] = `{"kept":3}`
		s3, err := store.Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for _, st := range []*store.Store{s2, s3} {
			for id, doc := range want {
				data, _, err := st.Raw(id)
				if err != nil {
					t.Fatalf("committed artifact lost: %v", err)
				}
				if string(data) != doc {
					t.Fatalf("artifact bytes corrupted: %q", data)
				}
			}
			// Fuzzed entries whose objects are missing must fail
			// cleanly, not panic.
			for _, e := range st.List("") {
				st.Raw(e.ID) //nolint:errcheck
			}
		}
	})
}
