package fault

// The row-granular damage frontier's differential oracle: evaluations
// against a clean trace (scalar ErrorOnTrace and every batched lane
// layout) re-sum only the rows a fault can reach, so they are checked
// bitwise against evaluations that never take the row path — a
// frontier-free reference sweep, the trace-free fused sweep
// (CompiledPlan.ErrorOn, whole levels) and, on layer-expressible
// graphs, the lowered dense network.

import (
	"math"
	"testing"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// rowFrontierGraphs are the generated fixtures: sparse layered graphs
// at densities 0.01, 0.1 and 1, and a rewired small-world graph with
// skip edges.
func rowFrontierGraphs(t *testing.T) []*graph.Net {
	t.Helper()
	sig := activation.NewSigmoid(1)
	r := rng.New(601)
	gs := []*graph.Net{
		graph.NewSparse(r, 4, []int{40, 40, 24}, sig, 0.01),
		graph.NewSparse(r, 4, []int{40, 40, 24}, sig, 0.1),
		graph.NewSparse(r, 4, []int{12, 10, 8}, sig, 1),
	}
	for {
		g := graph.NewSmallWorld(r, 4, []int{16, 12, 10}, sig, 2, 0.6)
		if !nn.IsLayered(g) {
			return append(gs, g)
		}
	}
}

// rowFrontierPlans builds the plan mix for g: an empty plan, neuron
// faults only at the deepest level (no dirty source rows), a single
// shallow fault, a level-1 neuron read over a skip edge (on graphs that
// have one), a random spread, half of level 1 failed (lists that cross
// rowFrac on the denser graphs), synapse faults on the output stage, on
// a faulty neuron's in-edge and on every skip edge found.
func rowFrontierPlans(t *testing.T, r *rng.Rand, g *graph.Net) []Plan {
	t.Helper()
	L := g.NumLayers()
	last := func(l, to int) SynapseFault {
		return SynapseFault{Layer: l, To: to, From: g.FanIn(l, to) - 1}
	}
	half := Plan{}
	for i := 0; i < g.Width(1); i += 2 {
		half.Neurons = append(half.Neurons, NeuronFault{Layer: 1, Index: i})
	}
	syn := Plan{
		Neurons:  []NeuronFault{{Layer: 2, Index: 1}},
		Synapses: []SynapseFault{last(L+1, 0), last(2, 1), last(2, 3), last(1, 0)},
	}
	for l := 2; l <= L; l++ {
		for to := 0; to < g.Width(l); to++ {
			for k := 0; k < g.FanIn(l, to); k++ {
				if sl, _, _ := g.InEdge(l, to, k); sl < l-1 {
					syn.Synapses = append(syn.Synapses, SynapseFault{Layer: l, To: to, From: k})
				}
			}
		}
	}
	// A level-1 neuron read only over skip edges, failed alone: its
	// damage reaches a deeper level directly, on the row path.
	skipSrc := Plan{}
	for i := 0; i < g.Width(1) && len(skipSrc.Neurons) == 0; i++ {
		readers := g.Readers(1, i)
		skipOnly := len(readers) > 0
		for _, ref := range readers {
			skipOnly = skipOnly && ref.Level > 2 && int(ref.Level) <= L
		}
		if skipOnly {
			skipSrc.Neurons = []NeuronFault{{Layer: 1, Index: i}}
		}
	}
	plans := []Plan{
		{},
		skipSrc,
		{Neurons: []NeuronFault{{Layer: L, Index: 0}, {Layer: L, Index: 3}}},
		{Neurons: []NeuronFault{{Layer: 1, Index: 2}}},
		RandomNeuronPlan(r, g, []int{1, 2, 1}),
		half,
		syn,
	}
	for i, p := range plans {
		if err := p.Validate(g); err != nil {
			t.Fatalf("plan %d invalid: %v", i, err)
		}
	}
	return plans
}

// lowerPlan re-addresses a graph plan's synapse faults (in-edge
// ordinals) for the lowered dense network (source indices).
func lowerPlan(g *graph.Net, p Plan) Plan {
	q := Plan{Neurons: p.Neurons}
	for _, f := range p.Synapses {
		_, si, _ := g.InEdge(f.Layer, f.To, f.From)
		q.Synapses = append(q.Synapses, SynapseFault{Layer: f.Layer, To: f.To, From: si})
	}
	return q
}

// graphReference evaluates |Fneu(x) - Ffail(x)| on g with no damage
// frontier at all: the clean trace, then a damaged pass that sums every
// level whole and applies the plan's faults in the engines' order
// (synapse deltas, activation, neuron overrides with clean nominals).
// It keeps the oracles honest about the frontier itself: ErrorOn still
// reads it to decide which levels the clean and damaged passes share.
func graphReference(g *graph.Net, p Plan, inj Injector, x []float64) float64 {
	L := g.NumLayers()
	clean := nn.TraceModel(g, x)
	ys := make([][]float64, L+1)
	ys[0] = x
	for l := 1; l <= L; l++ {
		s := make([]float64, g.Width(l))
		g.LevelSums(l, s, ys, nil)
		for _, f := range p.Synapses {
			if f.Layer == l {
				sl, si, w := g.InEdge(l, f.To, f.From)
				s[f.To] += inj.SynapseDelta(f, w*ys[sl][si])
			}
		}
		activation.Eval(g.Activation(), s, s)
		for _, f := range p.Neurons {
			if f.Layer == l {
				s[f.Index] = inj.NeuronValue(f, clean.Outputs[l-1][f.Index])
			}
		}
		ys[l] = s
	}
	faulted := g.OutputSumLevels(ys)
	for _, f := range p.Synapses {
		if f.Layer == L+1 {
			sl, si, w := g.InEdge(L+1, f.To, f.From)
			faulted += inj.SynapseDelta(f, w*ys[sl][si])
		}
	}
	return math.Abs(clean.Output - faulted)
}

// worstOf returns the largest error over plans and the first plan that
// attains it.
func worstOf(errs [][]float64) (float64, int) {
	worst, at := -1.0, -1
	for p, row := range errs {
		for _, e := range row {
			if e > worst {
				worst, at = e, p
			}
		}
	}
	return worst, at
}

func TestRowFrontierMatchesFullLevelOracles(t *testing.T) {
	var sawRows, sawWhole, sawCopy bool
	for gi, g := range rowFrontierGraphs(t) {
		r := rng.New(uint64(701 + gi))
		inputs := make([][]float64, 4)
		for i := range inputs {
			inputs[i] = make([]float64, g.Width(0))
			r.Floats(inputs[i], -1, 1)
		}
		traces := CleanTraces(g, inputs)
		plans := rowFrontierPlans(t, r, g)
		for _, p := range plans {
			cp := Compile(g, p)
			for l := 1; l <= g.NumLayers(); l++ {
				pl := &cp.lv[l]
				switch {
				case !pl.dirty():
				case pl.whole:
					sawWhole = true
				case len(pl.rows) > 0:
					sawRows = true
				default:
					sawCopy = true
				}
			}
		}
		dense, _ := g.Lower() // nil for the skip graph
		for _, m := range Models() {
			build := func(net nn.Model, seed uint64) Injector {
				inj, err := m.New(Params{C: 0.8, Sem: core.DeviationCap, Value: 0.4, Prob: 0.5, Bits: 8, Bit: 6, Net: net, R: rng.New(seed)})
				if err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
				return inj
			}
			// The oracle: each plan on its own injector, inputs in order,
			// whole levels only — the frontier-free reference, which the
			// trace-free fused sweep must match.
			oracle := make([][]float64, len(plans))
			for p, plan := range plans {
				oracle[p] = make([]float64, len(inputs))
				rinj := build(g, uint64(1000+p))
				for i, x := range inputs {
					oracle[p][i] = graphReference(g, plan, rinj, x)
				}
				cp, inj := Compile(g, plan), build(g, uint64(1000+p))
				for i, x := range inputs {
					if e := cp.ErrorOn(inj, x); e != oracle[p][i] {
						t.Fatalf("graph %d %s plan %d input %d: ErrorOn %v, reference %v", gi, m.Name, p, i, e, oracle[p][i])
					}
				}
				if dense != nil {
					dp, dinj := Compile(dense, lowerPlan(g, plan)), build(dense, uint64(1000+p))
					for i, x := range inputs {
						if e := dp.ErrorOn(dinj, x); e != oracle[p][i] {
							t.Fatalf("graph %d %s plan %d input %d: lowered dense %v, graph %v", gi, m.Name, p, i, e, oracle[p][i])
						}
					}
				}
				tp, tinj := Compile(g, plan), build(g, uint64(1000+p))
				for i, tr := range traces {
					if e := tp.ErrorOnTrace(tinj, tr); e != oracle[p][i] {
						t.Fatalf("graph %d %s plan %d input %d: ErrorOnTrace %v, full levels %v", gi, m.Name, p, i, e, oracle[p][i])
					}
				}
			}
			wantWorst, wantAt := worstOf(oracle)
			for _, lanes := range []int{1, 3, BatchLanes} {
				bp := CompileBatch(g, lanes)
				got := make([][]float64, len(plans))
				for lo := 0; lo < len(plans); lo += lanes {
					hi := min(lo+lanes, len(plans))
					bp.Reset(plans[lo:hi])
					injs := make([]Injector, hi-lo)
					for p := range injs {
						injs[p] = build(g, uint64(1000+lo+p))
					}
					out := make([]float64, hi-lo)
					for p := lo; p < hi; p++ {
						got[p] = make([]float64, len(traces))
					}
					for i, tr := range traces {
						bp.ErrorsOnTrace(injs, tr, out)
						for p := lo; p < hi; p++ {
							got[p][i] = out[p-lo]
							if out[p-lo] != oracle[p][i] {
								t.Fatalf("graph %d %s lanes=%d plan %d input %d: batched %v, full levels %v", gi, m.Name, lanes, p, i, out[p-lo], oracle[p][i])
							}
						}
					}
				}
				if w, at := worstOf(got); w != wantWorst || at != wantAt {
					t.Fatalf("graph %d %s lanes=%d: worst %v at plan %d, full levels %v at plan %d", gi, m.Name, lanes, w, at, wantWorst, wantAt)
				}
			}
			// ResetShared: one plan, one input per lane, each lane on its
			// own injector.
			bp := CompileBatch(g, len(traces))
			out := make([]float64, len(traces))
			for p, plan := range plans {
				bp.ResetShared(plan, len(traces))
				injs := make([]Injector, len(traces))
				for i := range injs {
					injs[i] = build(g, uint64(2000+i))
				}
				bp.ErrorsOnTraces(injs, traces, out)
				for i, x := range inputs {
					if want := graphReference(g, plan, build(g, uint64(2000+i)), x); out[i] != want {
						t.Fatalf("graph %d %s ResetShared plan %d input %d: batched %v, full levels %v", gi, m.Name, p, i, out[i], want)
					}
				}
			}
		}
	}
	if !sawRows || !sawWhole || !sawCopy {
		t.Fatalf("fixtures must cover row lists (%v), lists past rowFrac (%v) and empty lists (%v)", sawRows, sawWhole, sawCopy)
	}
}
