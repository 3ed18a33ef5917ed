package experiments

import (
	"context"
	"reflect"
	"time"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

func init() {
	Register(Experiment{ID: "WC", Title: "Tree-structured exhaustive search: prefix sharing and bound-guided pruning vs flat enumeration",
		Tags: []string{"extension", "engine", "perf"}, Run: WorstCaseTree})
}

// WorstCaseTree compares the pruned tree-structured exhaustive engine
// against the full enumeration — the same walk with Prune off, which
// evaluates every configuration (the flat_ms column) — on the Section I
// shapes. Pruning skips whole subtrees whose per-node bound cannot beat
// the incumbent, so the pruned walk visits a fraction of the
// configurations — but soundness demands the worst error and the
// first-attaining plan stay bit-identical to the full enumeration's,
// and the plan must attain the error exactly. The table's
// visited/pruned split (from a sequential run, where the counters are
// deterministic) is the source of the README's pruned-vs-full numbers.
func WorstCaseTree() *Result {
	res := &Result{ID: "WC", Title: "Tree-structured exhaustive search: prefix sharing and bound-guided pruning vs flat enumeration"}
	r := rng.New(0x7ee5)
	inputs := metrics.RandomPoints(r, 2, 8)

	t := metrics.NewTable("pruned tree engine vs full enumeration (f = 2 per layer, sequential counters)",
		"widths", "configurations", "visited", "pruned_%", "flat_ms", "tree_ms", "bit_identical")
	for _, w := range []int{6, 9, 12, 15} {
		// Weight scale 2: partially saturated sigmoids give neurons
		// heterogeneous crash deviations, which is exactly when the
		// subtree bound can separate weak prefixes from the incumbent
		// (at small scales every neuron matters equally and the bound
		// stays above the floor everywhere — pruning soundly does
		// nothing).
		net := nn.NewRandom(r.Split(), nn.Config{
			InputDim: 2,
			Widths:   []int{w, w},
			Act:      activation.NewSigmoid(1),
		}, 2)
		perLayer := []int{2, 2}
		shape := core.ShapeOf(net)

		run := func(prune bool) (fault.ExhaustiveResult, float64, error) {
			eng, err := fault.NewWorstCase(net, perLayer, inputs, fault.WorstCaseOptions{
				Prune: prune, Sequential: true, MaxConfigs: 5_000_000,
			})
			if err != nil {
				return fault.ExhaustiveResult{}, 0, err
			}
			start := time.Now()
			out, err := eng.Run(context.Background())
			return out, float64(time.Since(start).Microseconds()) / 1000, err
		}
		flat, flatMS, err := run(false)
		if err != nil {
			res.note("width %d: full enumeration: %v", w, err)
			continue
		}
		tree, treeMS, err := run(true)
		if err != nil {
			res.note("width %d: tree: %v", w, err)
			continue
		}

		identical := tree.WorstError == flat.WorstError && reflect.DeepEqual(tree.WorstPlan, flat.WorstPlan)
		attained := fault.MaxError(net, tree.WorstPlan, fault.Crash{}, inputs) == tree.WorstError
		prunedPct := 100 * float64(tree.Pruned) / float64(tree.Configurations)
		t.AddRow(fmtInt(w)+"x"+fmtInt(w), fmtInt(int(tree.Configurations)), fmtInt(int(tree.Visited)),
			fmtF(prunedPct), fmtF(flatMS), fmtF(treeMS), fmtBool(identical && attained))
		if !identical {
			res.note("VIOLATION: pruned worst %v (plan %v) differs from the full enumeration's %v (plan %v) at width %d",
				tree.WorstError, tree.WorstPlan, flat.WorstError, flat.WorstPlan, w)
		}
		if !attained {
			res.note("VIOLATION: tree plan does not attain its reported worst error at width %d", w)
		}
		bound := core.CrashFep(shape, perLayer)
		if tree.WorstError > bound*(1+1e-9) {
			res.note("VIOLATION: tree worst %v above Fep %v at width %d", tree.WorstError, bound, w)
		}
	}
	res.Tables = append(res.Tables, t)
	res.note("prefix sharing re-evaluates only layers at or below the deepest changed digit; pruning discards subtrees whose bound cannot beat the incumbent, and neither may change the answer")
	return res
}
