package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTwoHandlesAcrossFolds models two processes on one store: their
// interleaved Puts span several folds, each handle resolves every ID
// the other stored, and a fresh Open lists all of them.
func TestTwoHandlesAcrossFolds(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	handles := []*Store{a, b}
	var ids []string
	folds := 0
	var snap os.FileInfo
	for k := 0; folds < 4; k++ {
		if k == 5000 {
			t.Fatalf("%d Puts folded the journal %d times, want 4", k, folds)
		}
		e, err := handles[k%2].PutRaw(KindResult, benchArtifact(k), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
		fi, err := os.Stat(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatalf("put %d: manifest.json missing: %v", k, err)
		}
		if snap == nil || !os.SameFile(fi, snap) {
			folds++
			snap = fi
		}
	}
	for _, h := range handles {
		for _, id := range ids {
			if _, err := h.Resolve(id); err != nil {
				t.Fatalf("handle lost %s: %v", id[:12], err)
			}
		}
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fresh.List("")); got != len(ids) {
		t.Fatalf("fresh Open lists %d artifacts, want %d", got, len(ids))
	}
	// Open folded the journal: the snapshot alone indexes everything.
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil || len(m.Entries) != len(ids) {
		t.Fatalf("snapshot holds %d entries (%v), want %d", len(m.Entries), err, len(ids))
	}
	if fi, err := os.Stat(filepath.Join(dir, "manifest.journal")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after Open = %v, %v; want empty", fi, err)
	}
}

// TestJournalTornTail appends the torn remains of a crashed append:
// Open skips them, and the next Put — from a handle that saw the torn
// tail — is not swallowed by it.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.PutRaw(KindResult, benchArtifact(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.PutRaw(KindResult, benchArtifact(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := os.OpenFile(filepath.Join(dir, "manifest.journal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.WriteString(`{"id":"0123456789abcdef","ki`); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// a merges the torn tail before its append and must terminate it.
	third, err := a.PutRaw(KindResult, benchArtifact(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Entry{first, second, third} {
		if _, _, err := fresh.Raw(e.ID); err != nil {
			t.Fatalf("artifact lost around a torn journal tail: %v", err)
		}
	}
	if got := len(fresh.List("")); got != 3 {
		t.Fatalf("fresh Open lists %d artifacts, want 3", got)
	}
}

// TestStaleHandleAfterFold: a handle that merged part of the journal
// must re-read the journal from its start once another handle folded
// it, even when the new journal has grown past the old offset.
func TestStaleHandleAfterFold(t *testing.T) {
	defer func(prev int) { foldMin = prev }(foldMin)
	foldMin = 4
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	put := func(from, to int) {
		for k := from; k < to; k++ {
			e, err := a.PutRaw(KindResult, benchArtifact(k), nil)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, e.ID)
		}
	}
	put(0, 4) // the first Put writes the snapshot, three records follow
	if _, err := b.Resolve(ids[3]); err != nil {
		t.Fatal(err)
	}
	put(4, 9) // a fold at the fifth record, then four more
	if a.journalRecs != 4 || a.snapEntries != 5 {
		t.Fatalf("journal holds %d records over a snapshot of %d, want 4 over 5", a.journalRecs, a.snapEntries)
	}
	for _, id := range ids {
		if _, err := b.Resolve(id); err != nil {
			t.Fatalf("stale handle lost %s: %v", id[:12], err)
		}
	}
}
