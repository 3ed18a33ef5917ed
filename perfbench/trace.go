package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside it: the
// load generator's operations and requests, the job tier's own
// timestamps, and replays of library calls. Spans of one request share
// req; a replayed call's parent is the replay that issued it. Calls > 1
// marks a span that times a loop of identical calls.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req"`
	Calls  int    `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time, calls int) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Req: req}
	if calls > 1 {
		s.Calls = calls
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as a child span of parent and returns its duration.
func (t *tracer) timed(parent int64, name string, calls int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(t.newID(), parent, 0, name, start, end, calls)
	return end.Sub(start)
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	name         string
	spans, calls int
	total, self  time.Duration
}

// selfTimes computes each span's self time — its duration minus the
// part of its interval its children cover — and sums them per span
// name and per layer (the name up to its first dot).
func (t *tracer) selfTimes() (byName, byLayer []selfRow) {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	names := map[string]*selfRow{}
	layers := map[string]*selfRow{}
	for _, s := range t.spans {
		self := time.Duration(s.End-s.Start) - covered(s, kids[s.ID])
		calls := max(s.Calls, 1)
		for key, m := range map[string]map[string]*selfRow{s.Name: names, layerOf(s.Name): layers} {
			r := m[key]
			if r == nil {
				r = &selfRow{name: key}
				m[key] = r
			}
			r.spans++
			r.calls += calls
			r.total += time.Duration(s.End - s.Start)
			r.self += self
		}
	}
	return sortRows(names), sortRows(layers)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64
	end = p.Start
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			sum += v[1] - end
			end = v[1]
		}
	}
	return time.Duration(sum)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func sortRows(m map[string]*selfRow) []selfRow {
	out := make([]selfRow, 0, len(m))
	for _, r := range m {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeSelfTable prints the per-layer and per-span self-time summary.
func writeSelfTable(w io.Writer, byName, byLayer []selfRow) {
	var all time.Duration
	for _, r := range byLayer {
		all += r.self
	}
	section := func(title string, rows []selfRow) {
		fmt.Fprintf(w, "%-34s %8s %9s %12s %12s %7s\n", title, "spans", "calls", "total_ms", "self_ms", "self%")
		for _, r := range rows {
			share := 0.0
			if all > 0 {
				share = 100 * float64(r.self) / float64(all)
			}
			fmt.Fprintf(w, "%-34s %8d %9d %12.3f %12.3f %6.1f%%\n", r.name, r.spans, r.calls,
				ms(r.total), ms(r.self), share)
		}
	}
	section("layer", byLayer)
	fmt.Fprintln(w)
	section("span", byName)
}

// write stores the spans as JSON lines and the self-time table next to
// them.
func (t *tracer) write(spansPath, tablePath string) error {
	f, err := os.Create(spansPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	byName, byLayer := t.selfTimes()
	var b strings.Builder
	writeSelfTable(&b, byName, byLayer)
	return os.WriteFile(tablePath, []byte(b.String()), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
