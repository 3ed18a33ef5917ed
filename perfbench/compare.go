package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMain compares two result sets — directories of saved runs, as
// written under <out>/results — per workload and metric: each side's
// median and quartiles, and a flag on every end-to-end metric whose
// median moved by more than its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-spec BENCHMARK.json] <results-A> <results-B>")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	flagged := compare(stdout, &spec, a, b)
	fmt.Fprintf(stdout, "%d end-to-end metric(s) moved beyond their bound\n", flagged)
	return 0
}

// resultSet groups saved runs by workload and traced-ness.
type resultSet map[string][]resultFile

func setKey(workload string, trace bool) string {
	if trace {
		return workload + " (traced)"
	}
	return workload
}

func loadResults(dir string) (resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	set := resultSet{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		k := setKey(r.Workload, r.Trace)
		set[k] = append(set[k], r)
	}
	return set, nil
}

type metricRow struct {
	name, unit, better string
	bound              float64 // 0: no bound
}

// compare prints one table per workload present on both sides and
// returns the number of flagged end-to-end metrics.
func compare(w io.Writer, spec *benchSpec, a, b resultSet) int {
	var rows, layerRows []metricRow
	for _, m := range spec.EndToEnd {
		rows = append(rows, metricRow{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range reportOnly {
		rows = append(rows, metricRow{m.name, m.unit, m.better, 0})
	}
	for _, m := range spec.PerLayer {
		layerRows = append(layerRows, metricRow{m.Name, m.Unit, m.Better, 0})
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	flagged := 0
	for _, k := range keys {
		ra, rb := a[k], b[k]
		fmt.Fprintf(w, "== %s: A %d run(s), B %d run(s)\n", k, len(ra), len(rb))
		fmt.Fprintf(w, "%-32s %-8s %28s %28s %9s %6s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound")
		table := rows
		if ra[0].Trace {
			table = layerRows
		}
		for _, m := range table {
			va, vb := metricValues(ra, m.name), metricValues(rb, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / math.Abs(ma)
			mark := ""
			if m.bound > 0 && math.Abs(change) > m.bound {
				worse := (m.better == "lower") == (change > 0)
				mark = "improved"
				if worse {
					mark = "REGRESSED"
				}
				flagged++
			}
			bound := "-"
			if m.bound > 0 {
				bound = fmt.Sprintf("%.2f", m.bound)
			}
			fmt.Fprintf(w, "%-32s %-8s %28s %28s %+8.1f%% %6s %s\n", m.name, m.unit,
				summary(va), summary(vb), 100*change, bound, mark)
		}
		fmt.Fprintln(w)
	}
	return flagged
}

func metricValues(rs []resultFile, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// exclusive method), so spreads read the same as the acceptance
// check's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
