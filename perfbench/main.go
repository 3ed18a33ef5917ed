// Command perfbench is the repository's benchmark. It boots the real
// serve.Server over loopback HTTP on a fresh store, drives one named
// workload generated entirely from a seed, checks every answer, and
// prints every metric by name with its unit and sample count. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics, writes its spans and a
// self-time table under --out, and reports the tracing overhead. See
// README.md for the workloads and what each metric should move.
//
// Usage, from the repository root:
//
//	sh perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
//	sh perfbench/run.sh compare <results-dir-A> <results-dir-B>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload   *workload
	seed       uint64
	seconds    float64
	trace      bool
	out        string
	rooflineMB int
}

// An untraced run boots the system at least minBoots times and keeps
// booting until bootBudget has been spent (at most maxBoots times);
// setup_s is the median CPU time of a boot, setup_wall_s its median
// wall time. A fast boot is a few tens of milliseconds, so it takes
// many to steady the median.
const (
	minBoots   = 3
	maxBoots   = 15
	bootBudget = 2 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-mix, campaign-dense or campaign-graph")
	seed := fs.Uint64("seed", 1, "workload seed: every model, schedule and request derives from it")
	seconds := fs.Float64("seconds", 20, "measured seconds, split between the workload's phases")
	trace := fs.Int("trace", 0, "1 runs the traced run: per-layer metrics, spans and tracing overhead")
	out := fs.String("out", ".bench_out", "directory for results, traces and the run's temporary stores")
	roofline := fs.Int("roofline-mib", 4*llcMiB, "total size of the copy probe's two arrays")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, rooflineMB: *roofline}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.report(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.v.failed > 0 {
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	metrics map[string]value
	v       verdict
}

// runWorkload performs one run. Untraced runs boot the system several
// times (setup_s is the median), then drive the last one for --seconds.
// Traced runs drive an untraced system for half the time and a fresh
// traced one for the other half, so the tracing overhead is the
// difference, then probe every layer on the traced system.
func runWorkload(cfg config, stdout io.Writer) (*result, error) {
	tmp := filepath.Join(cfg.out, "tmp", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(tmp)
	boot := func(k int) (*env, time.Duration, error) {
		return setup(cfg.workload, cfg.seed, filepath.Join(tmp, strconv.Itoa(k)))
	}
	res := &result{metrics: map[string]value{}}
	if !cfg.trace {
		var walls, cpus []float64
		var spent time.Duration
		var e *env
		for k := 0; k < maxBoots && (k < minBoots || spent < bootBudget); k++ {
			if e != nil {
				if err := e.close(); err != nil {
					return nil, err
				}
				// Return the discarded system's memory, so each boot
				// starts from the same state.
				debug.FreeOSMemory()
			}
			var d time.Duration
			var err error
			cpu := cpuTime()
			if e, d, err = boot(k); err != nil {
				return nil, err
			}
			walls, cpus = append(walls, d.Seconds()), append(cpus, (cpuTime()-cpu).Seconds())
			spent += d
		}
		syscall.Sync() // measure from a flushed disk, like every boot
		ph := e.runPhases(cfg.seconds, nil)
		e.check(ph, &res.v)
		if err := e.close(); err != nil {
			return nil, err
		}
		res.metrics = endToEndMetrics(ph)
		res.metrics["setup_s"] = value{quantile(cpus, 0.5), len(cpus)}
		res.metrics["setup_wall_s"] = value{quantile(walls, 0.5), len(walls)}
		res.metrics["rss_peak_mb"] = value{rssPeakMB(), 1}
		return res, nil
	}

	e, _, err := boot(0)
	if err != nil {
		return nil, err
	}
	base := e.runPhases(cfg.seconds/2, nil)
	e.check(base, &res.v)
	if err := e.close(); err != nil {
		return nil, err
	}
	if e, _, err = boot(1); err != nil {
		return nil, err
	}
	tr := newTracer()
	ph := e.runPhases(cfg.seconds/2, tr)
	e.check(ph, &res.v)
	p := &prober{e: e, ph: ph, tr: tr, out: res.metrics, rooflineMB: cfg.rooflineMB}
	perr := p.run()
	res.v.record(perr)
	if err := e.close(); err != nil {
		return nil, err
	}
	baseM, traced := endToEndMetrics(base), endToEndMetrics(ph)
	for _, name := range []string{"req_p50_ms", "wc_job_p50_ms", "mc_job_p50_ms"} {
		res.metrics["trace.overhead."+name] = value{traced[name].v - baseM[name].v, traced[name].n}
	}
	dir := filepath.Join(cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload.name, cfg.seed))
	if err := tr.write(stem+".spans.jsonl", stem+".self.txt"); err != nil {
		return nil, err
	}
	byName, byLayer := tr.selfTimes()
	fmt.Fprintf(stdout, "self time of %d spans (written to %s.spans.jsonl):\n", len(tr.spans), stem)
	writeSelfTable(stdout, byName, byLayer)
	fmt.Fprintln(stdout)
	return res, nil
}

// resultFile is a run's saved record, the input of compare mode.
type resultFile struct {
	Workload   string                `json:"workload"`
	Seed       uint64                `json:"seed"`
	Trace      bool                  `json:"trace"`
	Seconds    float64               `json:"seconds"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	NumCPU     int                   `json:"nproc"`
	Correct    bool                  `json:"correct"`
	Attempted  int                   `json:"attempted"`
	Failed     int                   `json:"failed"`
	Errors     []string              `json:"errors,omitempty"`
	Metrics    map[string]savedValue `json:"metrics"`
}

type savedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// report prints every metric of the run with its unit and sample
// count, saves the run under out/results, and prints the result line.
func (r *result) report(cfg config, stdout io.Writer) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	w := cfg.workload
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d nproc=%d clients=%d offered_rate=%g/s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), clients(), w.rate)
	saved := resultFile{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Metrics: map[string]savedValue{},
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Metrics: map[string]metricOut{}}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok || math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			r.v.record(fmt.Errorf("metric %s was not measured", d.name))
			m = value{0, 0}
		}
		fmt.Fprintf(stdout, "  %-32s %16.6f %-8s n=%d\n", d.name, m.v, d.unit, m.n)
		line.Metrics[d.name] = metricOut{m.v, d.unit}
		saved.Metrics[d.name] = savedValue{m.v, d.unit, m.n}
	}
	if !cfg.trace {
		for _, d := range reportOnly {
			m := r.metrics[d.name]
			fmt.Fprintf(stdout, "  %-32s %16.6f %-8s n=%d (reported, not gated)\n", d.name, m.v, d.unit, m.n)
			saved.Metrics[d.name] = savedValue{m.v, d.unit, m.n}
		}
	}
	frac := float64(r.v.failed) / float64(max(r.v.attempted, 1))
	fmt.Fprintf(stdout, "  %-32s %16.6f %-8s n=%d (failed %d)\n", "fail_frac", frac, "ratio", r.v.attempted, r.v.failed)
	for _, e := range r.v.errs {
		fmt.Fprintln(stdout, "  FAIL:", e)
	}
	line.Correct, line.Attempted, line.Failed = r.v.failed == 0, r.v.attempted, r.v.failed
	saved.Correct, saved.Attempted, saved.Failed, saved.Errors = line.Correct, line.Attempted, line.Failed, r.v.errs
	if line.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(saved, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-trace%d-seed%d.json", w.name, trace, cfg.seed))
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return err
	}
	data, err = json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}
