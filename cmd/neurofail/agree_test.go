package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/activation"
	"repro/internal/cliutil"
	"repro/internal/conv"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/serve"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		out <- data
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	printed := string(<-out)
	if runErr != nil {
		t.Fatalf("command failed: %v\n%s", runErr, printed)
	}
	return printed
}

// printed returns the number following label in a command's output.
func printed(t *testing.T, out, label string) string {
	t.Helper()
	m := regexp.MustCompile(regexp.QuoteMeta(label) + `\s*(-?[0-9.]+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no %q line:\n%s", label, out)
	}
	return m[1]
}

// TestCLIMatchesServe pins one definition per query: for a dense net, a
// conv1d net, a layered graph and a skip graph, the numbers bounds,
// inject and montecarlo print equal the /v1 answers for the same
// model, faults, parameters and seed, formatted at the CLI's precision.
func TestCLIMatchesServe(t *testing.T) {
	act := activation.NewSigmoid(2)
	conv1d, err := conv.NewRandom(rng.New(5), 10, []int{3, 3}, []int{2, 2}, act, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name string
		m    nn.Model
	}{
		{"dense", nn.NewRandom(rng.New(4), nn.Config{InputDim: 2, Widths: []int{8, 6}, Act: act}, 1)},
		{"conv1d", conv1d},
		{"layered-graph", graph.NewLayered(rng.New(11), 3, []int{10, 8, 6}, act)},
		{"skip-graph", graph.NewSmallWorld(rng.New(11), 3, []int{10, 8, 6}, act, 2, 0.6)},
	}
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dir := t.TempDir()
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := cliutil.SaveModel(path, tc.m); err != nil {
				t.Fatal(err)
			}
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			query := func(route string, req map[string]any) map[string]float64 {
				t.Helper()
				req["network"] = json.RawMessage(doc)
				req["faults"] = 1
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", route, rec.Code, rec.Body.Bytes())
				}
				var resp map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				nums := map[string]float64{}
				for k, v := range resp {
					if f, ok := v.(float64); ok {
						nums[k] = f
					}
				}
				return nums
			}
			check := func(out, label, format string, want float64) {
				t.Helper()
				if got, w := printed(t, out, label), fmt.Sprintf(format, want); got != w {
					t.Errorf("%q: CLI printed %s, serve answered %s", label, got, w)
				}
			}

			out := captureStdout(t, func() error {
				return cmdBounds([]string{"-net", path, "-faults", "1", "-c", "0.8"})
			})
			b := query("/v1/bounds", map[string]any{"c": 0.8})
			check(out, "Fep (Byzantine, C=0.8):", "%.6f", b["fep"])
			check(out, "Fep (crash):", "%.6f", b["crash_fep"])
			check(out, "SynapseFep (C=0.8):", "%.6f", b["synapse_fep"])

			out = captureStdout(t, func() error {
				return cmdInject([]string{"-net", path, "-faults", "1", "-mode", "crash"})
			})
			inj := query("/v1/inject", map[string]any{"model": "crash"})
			check(out, "inputs:", "%.6f", inj["measured"])
			check(out, "Fep bound:", "%.6f", inj["bound"])

			out = captureStdout(t, func() error {
				return cmdMonteCarlo([]string{"-net", path, "-faults", "1", "-seed", "9", "-trials", "200"})
			})
			mc := query("/v1/montecarlo", map[string]any{"seed": 9, "trials": 200})
			for _, k := range []string{"mean", "median", "q90", "q99", "max"} {
				check(out, k, "%.5f", mc[k])
			}
		})
	}
}
