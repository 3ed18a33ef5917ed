package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
)

// boundSlack is the relative floating-point slack the server itself
// allows a measured error over its certificate before it answers 500.
const boundSlack = 1e-9

func underBound(measured, bound float64) bool { return measured <= bound*(1+boundSlack) }

// pricer is the certificate surface the server prices bounds with: the
// layered core.Certifier, or core.NodeShape for non-layered models.
type pricer interface {
	Fep(faults []int, c float64) float64
	CrashFep(faults []int) float64
	SynapseFep(faults []int, c float64) float64
}

// libraryBounds computes what /v1/bounds must answer for m, faults and
// c, the way the server does: per-node pricing on non-layered models,
// and a synapse distribution that copies the neuron faults with no
// output-synapse faults, capped at the synapses each level has.
func libraryBounds(m nn.Model, faults []int, c float64) (fep, crash, syn float64, err error) {
	syns := append(append([]int(nil), faults...), 0)
	var p pricer
	if nn.IsLayered(m) {
		cert, err := core.NewCertifier(core.ShapeOfModel(m))
		if err != nil {
			return 0, 0, 0, err
		}
		p = cert
	} else {
		ns, err := core.NodeShapeOf(m)
		if err != nil {
			return 0, 0, 0, err
		}
		for l := range syns {
			syns[l] = min(syns[l], ns.SynapseCount(l+1))
		}
		p = ns
	}
	return p.Fep(faults, c), p.CrashFep(faults), p.SynapseFep(syns, c), nil
}

// checkOp verifies one request answer: bounds bit for bit against the
// library, every measured error at or below its bound, and the search
// accounting of worst-case answers.
func checkOp(r *opResult) error {
	if !r.ok() {
		if r.err != nil {
			return r.err
		}
		return fmt.Errorf("%s: status %d: %s", r.tmpl.path, r.status, truncate(r.body))
	}
	var doc struct {
		Fep            float64 `json:"fep"`
		CrashFep       float64 `json:"crash_fep"`
		SynapseFep     float64 `json:"synapse_fep"`
		Measured       float64 `json:"measured"`
		Bound          float64 `json:"bound"`
		WorstError     float64 `json:"worst_error"`
		Configurations int64   `json:"configurations"`
		Visited        int64   `json:"visited"`
		Pruned         int64   `json:"pruned"`
		Max            float64 `json:"max"`
		Count          int     `json:"count"`
	}
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return fmt.Errorf("%s: %w", r.tmpl.path, err)
	}
	s := r.tmpl.spec
	switch s.route {
	case "bounds", "upload":
		fep, crash, syn, err := libraryBounds(r.model.m, s.faults, s.c)
		if err != nil {
			return err
		}
		if doc.Fep != fep || doc.CrashFep != crash || doc.SynapseFep != syn {
			return fmt.Errorf("bounds on %s: served (%v, %v, %v), library (%v, %v, %v)",
				r.model.name, doc.Fep, doc.CrashFep, doc.SynapseFep, fep, crash, syn)
		}
	case "eval":
		if doc.Count != len(r.tmpl.inputs) {
			return fmt.Errorf("eval: %d outputs for %d inputs", doc.Count, len(r.tmpl.inputs))
		}
	case "inject":
		if !underBound(doc.Measured, doc.Bound) {
			return fmt.Errorf("inject on %s: measured %v over bound %v", r.model.name, doc.Measured, doc.Bound)
		}
	case "worstcase":
		if !underBound(doc.WorstError, doc.Bound) {
			return fmt.Errorf("worstcase on %s: %v over bound %v", r.model.name, doc.WorstError, doc.Bound)
		}
		if doc.Visited+doc.Pruned != doc.Configurations {
			return fmt.Errorf("worstcase on %s: visited %d + pruned %d != configurations %d",
				r.model.name, doc.Visited, doc.Pruned, doc.Configurations)
		}
	case "montecarlo":
		if !underBound(doc.Max, doc.Bound) {
			return fmt.Errorf("montecarlo on %s: max %v over bound %v", r.model.name, doc.Max, doc.Bound)
		}
	}
	return nil
}

// checkJob verifies a job's result document against its bound.
func checkJob(j *jobResult) error {
	if !j.ok() {
		if j.err != nil {
			return j.err
		}
		return fmt.Errorf("job %s ended %s", j.rec.ID, j.rec.State)
	}
	var doc struct {
		WorstError float64 `json:"worst_error"`
		Max        float64 `json:"max"`
		Bound      float64 `json:"bound"`
	}
	if err := json.Unmarshal(j.result, &doc); err != nil {
		return fmt.Errorf("job %s result: %w", j.rec.ID, err)
	}
	measured := doc.WorstError
	if j.spec.kind == "montecarlo" {
		measured = doc.Max
	}
	if !underBound(measured, doc.Bound) {
		return fmt.Errorf("%s job on %s: %v over bound %v", j.spec.kind, j.model.name, measured, doc.Bound)
	}
	return nil
}

// checkWorstCaseJob replays a finished worst-case job through the
// library's pruned tree search on the same inputs: the worst error must
// be identical.
func checkWorstCaseJob(j *jobResult) error {
	var doc struct {
		WorstError float64 `json:"worst_error"`
	}
	if err := json.Unmarshal(j.result, &doc); err != nil {
		return err
	}
	w, err := fault.NewWorstCase(j.model.m, j.spec.faults, j.inputs, fault.WorstCaseOptions{Prune: true})
	if err != nil {
		return err
	}
	res, err := w.Run(context.Background())
	if err != nil {
		return err
	}
	if res.WorstError != doc.WorstError {
		return fmt.Errorf("worstcase job %s: served %v, library %v", j.rec.ID, doc.WorstError, res.WorstError)
	}
	return nil
}

// checkMonteCarloJob sends a finished Monte Carlo job's request to the
// synchronous route: both must return the same document.
func (e *env) checkMonteCarloJob(j *jobResult) error {
	status, body, err := e.post("/v1/montecarlo", j.inner)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("sync montecarlo: status %d: %s", status, truncate(body))
	}
	var sync, async any
	if err := json.Unmarshal(body, &sync); err != nil {
		return err
	}
	if err := json.Unmarshal(j.result, &async); err != nil {
		return err
	}
	if !reflect.DeepEqual(sync, async) {
		return fmt.Errorf("montecarlo job %s: result %s differs from sync answer %s", j.rec.ID, truncate(j.result), truncate(body))
	}
	return nil
}

// verdict tallies a run's operations and the failures among them.
type verdict struct {
	attempted, failed int
	errs              []string
}

func (v *verdict) record(err error) {
	v.attempted++
	if err != nil {
		v.failed++
		if len(v.errs) < 10 {
			v.errs = append(v.errs, err.Error())
		}
	}
}

// check verifies every answer of a run and the two cross-checks: the
// first finished worst-case job against the library search and the
// first finished Monte Carlo job against the sync route.
func (e *env) check(ph *phases, v *verdict) {
	for _, set := range [][]opResult{ph.open, ph.closed} {
		for i := range set {
			v.record(checkOp(&set[i]))
		}
	}
	var wc, mc *jobResult
	for _, j := range ph.jobs {
		err := checkJob(j)
		v.record(err)
		if err != nil {
			continue
		}
		if j.spec.kind == "worstcase" && wc == nil {
			wc = j
		}
		if j.spec.kind == "montecarlo" && mc == nil {
			mc = j
		}
	}
	for _, c := range []struct {
		j     *jobResult
		kind  string
		check func(*jobResult) error
	}{{wc, "worstcase", checkWorstCaseJob}, {mc, "montecarlo", e.checkMonteCarloJob}} {
		if c.j == nil {
			v.record(fmt.Errorf("no finished %s job to cross-check", c.kind))
			continue
		}
		v.record(c.check(c.j))
	}
}
