package graph_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/activation"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
)

// FuzzGraphJSON drives arbitrary bytes through the graph codec. The
// codec is the trust boundary for uploaded documents, so decoding must
// never panic, anything it accepts must satisfy the full structural
// Validate contract, and the encoding must be a stable fixed point.
// Accepted graphs of modest size are then evaluated (checkEval).
func FuzzGraphJSON(f *testing.F) {
	r := rng.New(7)
	for _, g := range []*graph.Net{
		graph.NewLayered(r.Split(), 2, []int{3, 2}, activation.NewSigmoid(1)),
		graph.NewSparse(r.Split(), 3, []int{4, 3}, activation.Identity{}, 0.5),
		graph.NewSmallWorld(r.Split(), 2, []int{5, 4, 3}, activation.NewTanh(1), 2, 0.7),
	} {
		if doc, err := json.Marshal(g); err == nil {
			f.Add(doc)
		}
	}
	f.Add([]byte(`{"arch":"graph","input_dim":0,"activation":"identity","levels":[],"output":{}}`))
	f.Add([]byte(`{"arch":"graph","levels":[{"n":1,"ptr":[0,2],"src_level":[0,1],"src_idx":[0,0],"w":[1,1]}]}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g graph.Net
		if err := json.Unmarshal(data, &g); err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("codec accepted a graph that fails Validate: %v", err)
		}
		doc, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("accepted graph failed to marshal: %v", err)
		}
		var g2 graph.Net
		if err := json.Unmarshal(doc, &g2); err != nil {
			t.Fatalf("re-marshalled graph rejected: %v", err)
		}
		doc2, err := json.Marshal(&g2)
		if err != nil {
			t.Fatalf("round-tripped graph failed to marshal: %v", err)
		}
		if !bytes.Equal(doc, doc2) {
			t.Fatalf("encoding not stable:\n%s\n%s", doc, doc2)
		}
		checkEval(t, &g, rng.New(uint64(len(data))), 1+len(data)%9)
	})
}

// checkEval evaluates an accepted graph on random inputs: every level's
// multi-lane sums must equal its single-lane sums bitwise, and a
// layer-expressible graph must forward bitwise like its lowered dense
// twin. That equality rests on absent edges being exact zeros, so it is
// only claimed where the dense forward stays finite (an infinite level
// output times a zero weight is NaN in the dense twin). Graphs past
// 4096 edges or 1<<16 nodes are skipped to keep each case fast.
func checkEval(t *testing.T, g *graph.Net, r *rng.Rand, lanes int) {
	L := g.NumLayers()
	edges, nodes := g.Output.Edges(), 0
	for l := 0; l <= L; l++ {
		nodes += g.Width(l)
		if l > 0 {
			edges += g.Levels[l-1].Edges()
		}
	}
	if edges > 4096 || nodes > 1<<16 {
		return
	}
	srcs := make([][][]float64, lanes)
	dsts := make([][]float64, lanes)
	for k := range srcs {
		srcs[k] = make([][]float64, L+1)
		for v := range srcs[k] {
			srcs[k][v] = make([]float64, g.Width(v))
			r.Floats(srcs[k][v], -1, 1)
		}
	}
	for l := 1; l <= L; l++ {
		for k := range dsts {
			dsts[k] = make([]float64, g.Width(l))
		}
		g.LevelSumsLanes(l, dsts, srcs)
		want := make([]float64, g.Width(l))
		for k := range srcs {
			g.LevelSums(l, want, srcs[k], nil)
			for i := range want {
				if math.Float64bits(dsts[k][i]) != math.Float64bits(want[i]) {
					t.Fatalf("level %d lane %d of %d node %d: LevelSumsLanes %v != LevelSums %v", l, k, lanes, i, dsts[k][i], want[i])
				}
			}
		}
	}
	if !nn.IsLayered(g) {
		return
	}
	low, err := g.Lower()
	if err != nil {
		t.Fatalf("layered graph does not lower: %v", err)
	}
	gs, ls := nn.NewScratch(g), nn.NewScratch(low)
	for k := range srcs {
		x := srcs[k][0]
		want := nn.ForwardModel(low, ls, x)
		if math.IsNaN(want) || math.IsInf(want, 0) {
			continue
		}
		if got := nn.ForwardModel(g, gs, x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("graph forward %v != lowered %v", got, want)
		}
	}
}
