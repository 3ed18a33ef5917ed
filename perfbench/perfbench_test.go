package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// resultLine is the JSON object every run prints last.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, untraced
// and traced, and checks that each run passes every correctness check
// and emits exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the server and drives every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "2", "--trace", trace,
					"--out", t.TempDir(), "--roofline-mib", "8"}, &out, &errs)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t failed=%d attempted=%d (fail_frac must be 0)\n%s",
						res.Correct, res.Failed, res.Attempted, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
			})
		}
	}
}

// TestBenchmarkDefinition checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and emits, with the same
// units and directions.
func TestBenchmarkDefinition(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, names, units, betters []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit || betters[i] != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
					kind, i, names[i], units[i], betters[i], d.name, d.unit, d.better)
			}
		}
	}
	var n, u, b []string
	for _, m := range spec.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("end_to_end", n, u, b, endToEnd)
	n, u, b = nil, nil, nil
	for _, m := range spec.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", n, u, b, perLayer)
}
