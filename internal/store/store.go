// Package store is a content-addressed JSON artifact store: every
// artifact (trained network, quantised model recipe, experiment outcome
// set) is serialised to canonical JSON, addressed by the sha256 of those
// bytes, and indexed in a human-readable manifest. Content addressing
// makes campaigns resumable and comparable — saving the same network
// twice yields the same ID, and an ID retrieved from a report always
// names exactly the bytes that produced it.
//
// Layout under the root directory:
//
//	<root>/manifest.json                — the index snapshot: one Entry per artifact
//	<root>/manifest.journal             — Entries added since the snapshot, one JSON line each
//	<root>/objects/<aa>/<id>.json       — the artifact bytes (aa = id[:2])
//	<root>/objects/<aa>/<id>.entry.json — the artifact's Entry (sidecar)
//
// Object files are immutable once written (writes go through a
// temp-file + rename, so readers never observe partial objects) and are
// plain JSON, inspectable with jq. A Put costs O(1) in the store size:
// it writes the object and its sidecar, then appends one line to the
// journal. The journal is folded into the snapshot on Open and whenever
// it holds as many records as the snapshot (at least foldMin), so the
// fold's cost amortises to O(1) per Put. Resolve falls back to the disk
// on a miss, reading only the journal bytes it has not seen (and the
// snapshot only when a fold replaced it), so artifacts added by another
// process (a CLI ingest next to a running server) become visible
// without a restart; an flock on the journal serialises appends and
// folds across processes. Each object also carries its Entry as a
// sidecar — the manifest is a derived index, and Rebuild reconstructs
// it from the object tree if it is ever lost or clobbered.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kinds used by the typed helpers. Put accepts any non-empty kind.
const (
	KindNetwork   = "network"
	KindConv      = "conv"
	KindGraph     = "graph"
	KindQuantized = "quantized"
	KindOutcomes  = "outcomes"
)

// Entry is one manifest record: the addressable identity of an artifact.
type Entry struct {
	// ID is the lowercase hex sha256 of the artifact bytes.
	ID string `json:"id"`
	// Kind classifies the artifact (network, quantized, outcomes, ...).
	Kind string `json:"kind"`
	// Created is the wall-clock time of the first Put.
	Created time.Time `json:"created"`
	// Bytes is the serialised size.
	Bytes int `json:"bytes"`
	// Meta carries free-form labels (target, widths, campaign name, ...).
	Meta map[string]string `json:"meta,omitempty"`
}

// manifest is the serialised index.
type manifest struct {
	Entries []Entry `json:"entries"`
}

// foldMin is the fewest journal records that trigger a fold; past it a
// fold waits until the journal holds as many records as the snapshot,
// so rewriting the snapshot costs O(1) per Put on average. Tests lower
// it to put folds within reach.
var foldMin = 256

// Store is an artifact store rooted at one directory. Methods are safe
// for concurrent use by multiple goroutines.
type Store struct {
	root string

	mu      sync.RWMutex
	entries map[string]Entry

	// snap identifies the manifest.json last read or written (nil when
	// there is none) and snapEntries counts its entries.
	snap        os.FileInfo
	snapEntries int
	// journalOff is how many journal bytes are merged, journalRecs how
	// many records they hold, and journalTail how many unterminated
	// bytes follow them: the torn tail of an append that crashed.
	journalOff  int64
	journalRecs int
	journalTail int64
}

// errCorruptManifest marks a manifest.json that does not parse.
var errCorruptManifest = errors.New("corrupt manifest")

// Open opens (creating if needed) the store rooted at dir, folding any
// journal records into the snapshot.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{root: dir, entries: map[string]Entry{}}
	j, err := s.lockJournal(lockExclusive)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	err = s.mergeLocked(j)
	switch {
	case errors.Is(err, errCorruptManifest):
		// A corrupt manifest is recoverable state, not a fatal error:
		// the object tree is the source of truth, the manifest only a
		// derived index. Rebuild it, quarantining unreadable objects.
		if _, err := s.rebuildLocked(j); err != nil {
			return nil, fmt.Errorf("store: manifest corrupt and rebuild failed: %w", err)
		}
	case err != nil:
		return nil, err
	case s.snap == nil && s.hasObjects():
		// The object tree holds artifacts but the index was lost:
		// self-heal by rebuilding it from the objects instead of serving
		// an empty store.
		if _, err := s.rebuildLocked(j); err != nil {
			return nil, err
		}
	case s.journalOff > 0 || s.journalTail > 0:
		if err := s.foldLocked(j); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// hasObjects reports whether the object tree holds at least one
// artifact file.
func (s *Store) hasObjects() bool {
	matches, err := filepath.Glob(filepath.Join(s.root, "objects", "*", "*.json"))
	return err == nil && len(matches) > 0
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) manifestPath() string { return filepath.Join(s.root, "manifest.json") }

func (s *Store) journalPath() string { return filepath.Join(s.root, "manifest.journal") }

func (s *Store) objectPath(id string) string {
	return filepath.Join(s.root, "objects", id[:2], id+".json")
}

func (s *Store) entryPath(id string) string {
	return filepath.Join(s.root, "objects", id[:2], id+".entry.json")
}

// ID returns the content address of the given artifact bytes.
func ID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Put serialises v as JSON and stores it under its content address.
// Storing identical content twice is a no-op returning the original
// entry (the first meta wins — the ID names the bytes, not the labels).
func (s *Store) Put(kind string, v any, meta map[string]string) (Entry, error) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	return s.PutRaw(kind, data, meta)
}

// PutRaw stores pre-serialised JSON bytes under their content address.
func (s *Store) PutRaw(kind string, data []byte, meta map[string]string) (Entry, error) {
	if kind == "" {
		return Entry{}, fmt.Errorf("store: empty artifact kind")
	}
	if !json.Valid(data) {
		return Entry{}, fmt.Errorf("store: artifact is not valid JSON")
	}
	id := ID(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		return e, nil
	}
	j, err := s.lockJournal(lockExclusive)
	if err != nil {
		return Entry{}, err
	}
	defer j.Close()
	// Another process may have both stored this artifact and indexed it
	// since we last looked: merge before deciding, so the first meta
	// wins across processes too.
	if err := s.mergeLocked(j); err != nil {
		return Entry{}, err
	}
	if e, ok := s.entries[id]; ok {
		return e, nil
	}
	path := s.objectPath(id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	if err := atomicWrite(path, data); err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	e := Entry{ID: id, Kind: kind, Created: time.Now().UTC().Truncate(time.Second), Bytes: len(data), Meta: meta}
	sidecar, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	if err := atomicWrite(s.entryPath(id), sidecar); err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	if err := s.appendLocked(j, e); err != nil {
		return Entry{}, err
	}
	s.entries[id] = e
	if s.snap == nil || s.journalRecs >= max(foldMin, s.snapEntries) {
		// The journal already indexes the artifact durably: a failed
		// fold only defers the snapshot to the next Put or Open.
		_ = s.foldLocked(j)
	}
	return e, nil
}

// appendLocked appends e to the journal as one line in a single
// O_APPEND write; s.mu must be held for writing and j locked
// exclusively, with the journal merged to its end.
func (s *Store) appendLocked(j *os.File, e Entry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.journalTail > 0 {
		// Terminate the torn tail so it stays one skipped line instead
		// of swallowing this record.
		line = append([]byte{'\n'}, line...)
	}
	line = append(line, '\n')
	if err := crashPoint(j, line); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if _, err := j.Write(line); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	s.journalOff += s.journalTail + int64(len(line))
	s.journalRecs++
	s.journalTail = 0
	return nil
}

// Resolve returns the entry for an ID or a unique ID prefix (at least 6
// hex characters). Unknown and ambiguous references are errors. A miss
// re-reads the on-disk manifest first, so artifacts stored by another
// process resolve without reopening the store.
func (s *Store) Resolve(ref string) (Entry, error) {
	ref = strings.ToLower(strings.TrimSpace(ref))
	if len(ref) < 6 {
		return Entry{}, fmt.Errorf("store: id %q too short (need >= 6 hex chars)", ref)
	}
	s.mu.RLock()
	e, err := s.resolveLocked(ref)
	s.mu.RUnlock()
	if err == nil {
		return e, nil
	}
	// The miss may just be staleness: merge the on-disk index and retry
	// once.
	s.mu.Lock()
	defer s.mu.Unlock()
	if mergeErr := s.refreshLocked(); mergeErr != nil {
		return Entry{}, mergeErr
	}
	return s.resolveLocked(ref)
}

// resolveLocked resolves an exact ID or unique prefix; s.mu must be
// held (read or write).
func (s *Store) resolveLocked(ref string) (Entry, error) {
	if e, ok := s.entries[ref]; ok {
		return e, nil
	}
	var found []Entry
	for id, e := range s.entries {
		if strings.HasPrefix(id, ref) {
			found = append(found, e)
		}
	}
	switch len(found) {
	case 0:
		return Entry{}, fmt.Errorf("store: no artifact with id %q", ref)
	case 1:
		return found[0], nil
	default:
		return Entry{}, fmt.Errorf("store: id prefix %q is ambiguous (%d matches)", ref, len(found))
	}
}

// refreshLocked merges the on-disk index under a shared journal lock;
// s.mu must be held for writing.
func (s *Store) refreshLocked() error {
	j, err := s.lockJournal(lockShared)
	if err != nil {
		return err
	}
	defer j.Close()
	return s.mergeLocked(j)
}

// mergeLocked folds the on-disk index into the in-memory one (in-memory
// entries win on conflict — both name the same immutable bytes). It
// re-reads manifest.json only when the snapshot changed since it was
// last seen (a fold or a Rebuild by another handle, which also reset
// the journal), then the journal bytes past the merged offset. s.mu
// must be held for writing and j locked.
func (s *Store) mergeLocked(j *os.File) error {
	f, err := os.Open(s.manifestPath())
	switch {
	case os.IsNotExist(err):
		s.snap = nil
	case err != nil:
		return fmt.Errorf("store: %w", err)
	default:
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if !sameSnapshot(fi, s.snap) {
			data, err := io.ReadAll(f)
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			var m manifest
			if err := json.Unmarshal(data, &m); err != nil {
				return fmt.Errorf("store: parsing %s: %w (%w)", s.manifestPath(), errCorruptManifest, err)
			}
			for _, e := range m.Entries {
				if _, ok := s.entries[e.ID]; !ok {
					s.entries[e.ID] = e
				}
			}
			s.snap, s.snapEntries = fi, len(m.Entries)
			s.journalOff, s.journalRecs, s.journalTail = 0, 0, 0
		}
	}
	return s.readJournalLocked(j)
}

// sameSnapshot reports whether fi still describes the snapshot file
// last seen as seen: every snapshot write is a rename of a fresh file.
func sameSnapshot(fi, seen os.FileInfo) bool {
	return seen != nil && os.SameFile(fi, seen) && fi.Size() == seen.Size() && fi.ModTime().Equal(seen.ModTime())
}

// readJournalLocked merges the journal records past the merged offset.
// Only newline-terminated lines count: appends run under the exclusive
// lock, so an unterminated tail is the torn remains of a crashed
// append, never one in flight. Malformed lines are skipped — the
// artifact behind a torn record is still recoverable from its sidecar
// through Rebuild.
func (s *Store) readJournalLocked(j *os.File) error {
	fi, err := j.Stat()
	if err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if fi.Size() < s.journalOff+s.journalTail {
		// Reset behind our back without a snapshot change: start over
		// (merging is idempotent).
		s.journalOff, s.journalRecs, s.journalTail = 0, 0, 0
	}
	if fi.Size() == s.journalOff+s.journalTail {
		return nil
	}
	buf := make([]byte, fi.Size()-s.journalOff)
	n, err := j.ReadAt(buf, s.journalOff)
	if err != nil && err != io.EOF {
		return fmt.Errorf("store: journal: %w", err)
	}
	buf = buf[:n]
	done := bytes.LastIndexByte(buf, '\n') + 1
	for rest := buf[:done]; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n')
		var e Entry
		if json.Unmarshal(rest[:i], &e) == nil && validID(e.ID) && e.Kind != "" {
			s.journalRecs++
			if _, ok := s.entries[e.ID]; !ok {
				s.entries[e.ID] = e
			}
		}
		rest = rest[i+1:]
	}
	s.journalOff += int64(done)
	s.journalTail = int64(len(buf) - done)
	return nil
}

// validID reports whether id is a content address: 64 lowercase hex
// characters.
func validID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// foldLocked writes the in-memory index as the new snapshot and resets
// the journal. Run right after a merge under the exclusive lock, the
// index holds every journal record, so no process's record is lost;
// the journal is reset only once the snapshot is in place. s.mu must be
// held for writing.
func (s *Store) foldLocked(j *os.File) error {
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	if err := j.Truncate(0); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	s.journalOff, s.journalRecs, s.journalTail = 0, 0, 0
	s.snap, s.snapEntries = nil, len(s.entries)
	if fi, err := os.Stat(s.manifestPath()); err == nil {
		s.snap = fi
	}
	return nil
}

// lockJournal opens the journal (creating it) and takes its flock in
// the given mode; closing the file releases the lock.
func (s *Store) lockJournal(how int) (*os.File, error) {
	j, err := os.OpenFile(s.journalPath(), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := flock(j, how); err != nil {
		j.Close()
		return nil, fmt.Errorf("store: locking journal: %w", err)
	}
	return j, nil
}

// RebuildReport summarises a manifest reconstruction.
type RebuildReport struct {
	// Indexed counts the artifacts recovered into the new manifest.
	Indexed int
	// Quarantined counts unreadable objects moved aside (bad JSON, or
	// content that no longer hashes to its filename).
	Quarantined int
}

// Rebuild reconstructs the index by scanning the object tree and
// rewrites the manifest — the recovery path for a lost or damaged
// manifest.json (Open takes it automatically). The objects themselves
// are the source of truth: every readable object whose content still
// hashes to its filename is re-indexed (its entry sidecar supplies
// kind/meta when readable, and is re-synthesised otherwise), while
// unreadable or corrupted objects are quarantined under
// <root>/quarantine/ instead of failing the whole store open.
func (s *Store) Rebuild() (RebuildReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lockJournal(lockExclusive)
	if err != nil {
		return RebuildReport{}, err
	}
	defer j.Close()
	return s.rebuildLocked(j)
}

// rebuildLocked is Rebuild with s.mu held for writing and j locked
// exclusively. The new snapshot resets the journal: every record in it
// names an object written before its append, so the scan covers it.
func (s *Store) rebuildLocked(j *os.File) (RebuildReport, error) {
	var rep RebuildReport
	objects, err := filepath.Glob(filepath.Join(s.root, "objects", "*", "*.json"))
	if err != nil {
		return rep, fmt.Errorf("store: %w", err)
	}
	entries := map[string]Entry{}
	for _, path := range objects {
		name := filepath.Base(path)
		if strings.HasSuffix(name, ".entry.json") {
			continue // sidecars are handled with their object
		}
		id := strings.TrimSuffix(name, ".json")
		data, err := os.ReadFile(path)
		if err != nil || !json.Valid(data) || ID(data) != id {
			// The object cannot back its own address: quarantine it (and
			// its sidecar) rather than indexing bytes Raw would reject.
			rep.Quarantined++
			s.quarantineFiles(path, s.entryPath(id))
			continue
		}
		e, ok := readSidecar(s.entryPath(id), id)
		if !ok {
			// Lost sidecar: synthesise an entry from the object itself so
			// the artifact stays reachable, and rewrite the sidecar.
			info, statErr := os.Stat(path)
			created := time.Now().UTC().Truncate(time.Second)
			if statErr == nil {
				created = info.ModTime().UTC().Truncate(time.Second)
			}
			e = Entry{ID: id, Kind: sniffKind(data), Created: created, Bytes: len(data),
				Meta: map[string]string{"recovered": "rebuild"}}
			if sidecar, err := json.MarshalIndent(e, "", " "); err == nil {
				_ = atomicWrite(s.entryPath(id), sidecar)
			}
		}
		entries[id] = e
	}
	s.entries = entries
	rep.Indexed = len(entries)
	return rep, s.foldLocked(j)
}

// readSidecar loads an entry sidecar, accepting it only when it names
// the object it sits next to.
func readSidecar(path, id string) (Entry, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.ID != id || e.Kind == "" {
		return Entry{}, false
	}
	return e, true
}

// sniffKind classifies an artifact document whose sidecar is lost, from
// the document's own structure.
func sniffKind(data []byte) string {
	trimmed := strings.TrimLeftFunc(string(data), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	if strings.HasPrefix(trimmed, "[") {
		return KindOutcomes
	}
	var probe struct {
		Arch      string          `json:"arch"`
		Hidden    json.RawMessage `json:"hidden"`
		NetworkID string          `json:"network_id"`
		Options   json.RawMessage `json:"options"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "unknown"
	}
	switch {
	case probe.Arch == "graph":
		return KindGraph
	case probe.Arch != "":
		return KindConv
	case probe.NetworkID != "" && len(probe.Options) > 0:
		return KindQuantized
	case len(probe.Hidden) > 0:
		return KindNetwork
	}
	return "unknown"
}

// quarantineFiles moves damaged files into <root>/quarantine/ (best
// effort: quarantine must never make recovery worse).
func (s *Store) quarantineFiles(paths ...string) {
	qdir := filepath.Join(s.root, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			continue
		}
		_ = os.Rename(p, filepath.Join(qdir, filepath.Base(p)))
	}
}

// Raw returns the stored bytes and entry for an ID or unique prefix.
func (s *Store) Raw(ref string) ([]byte, Entry, error) {
	e, err := s.Resolve(ref)
	if err != nil {
		return nil, Entry{}, err
	}
	data, err := os.ReadFile(s.objectPath(e.ID))
	if err != nil {
		return nil, Entry{}, fmt.Errorf("store: %w", err)
	}
	if got := ID(data); got != e.ID {
		return nil, Entry{}, fmt.Errorf("store: object %s corrupted (content hashes to %s)", e.ID, got)
	}
	return data, e, nil
}

// Get unmarshals the artifact for an ID or unique prefix into v.
func (s *Store) Get(ref string, v any) (Entry, error) {
	data, e, err := s.Raw(ref)
	if err != nil {
		return Entry{}, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return Entry{}, fmt.Errorf("store: parsing artifact %s: %w", e.ID, err)
	}
	return e, nil
}

// List returns the entries of the given kind ("" lists everything),
// oldest first with ID as the tiebreak. The on-disk manifest is merged
// first so other processes' artifacts are listed too.
func (s *Store) List(kind string) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Best effort: a damaged manifest should not take listing down with
	// it — the in-memory index still serves.
	_ = s.refreshLocked()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		if kind == "" || e.Kind == kind {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// writeManifestLocked writes the in-memory index as manifest.json
// atomically; s.mu must be held for writing.
func (s *Store) writeManifestLocked() error {
	m := manifest{Entries: make([]Entry, 0, len(s.entries))}
	for _, e := range s.entries {
		m.Entries = append(m.Entries, e)
	}
	sort.Slice(m.Entries, func(i, j int) bool {
		if !m.Entries[i].Created.Equal(m.Entries[j].Created) {
			return m.Entries[i].Created.Before(m.Entries[j].Created)
		}
		return m.Entries[i].ID < m.Entries[j].ID
	})
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := atomicWrite(s.manifestPath(), data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// atomicWrite writes data to path via a temp file + rename so readers
// never observe a partial file.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if err := crashPoint(tmp, data); err != nil {
		tmp.Close() // a crashed process leaves its temp file behind
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// writeFault, when non-nil, is consulted before each file write the
// store makes: every atomicWrite and every journal append. A non-nil
// error crashes that write part-way — half its bytes reach the file (a
// temp file whose rename then never happens, or a torn journal line)
// and the write fails with the error. It is a test seam for
// enumerating crash points and nil otherwise.
var writeFault func() error

// crashPoint applies writeFault to one write of data to f.
func crashPoint(f *os.File, data []byte) error {
	if writeFault == nil {
		return nil
	}
	err := writeFault()
	if err != nil {
		f.Write(data[:len(data)/2]) //nolint:errcheck // the crash is the error
	}
	return err
}
