package hged_test

import (
	"strings"
	"testing"

	"hged"
)

// buildPair constructs the paper's Fig. 1 hypergraph through the public
// facade only, and returns it.
func buildFig1(t *testing.T) *hged.Hypergraph {
	t.Helper()
	labels := []hged.Label{2, 2, 2, 3, 3, 1, 2, 3} // u1..u8
	g := hged.NewLabeledHypergraph(labels)
	g.AddEdge(10, 0, 1, 3)
	g.AddEdge(10, 3, 5, 6)
	g.AddEdge(11, 1, 2, 4)
	g.AddEdge(11, 3, 4, 6, 7)
	return g
}

func TestFacadeDistanceAndPath(t *testing.T) {
	g := buildFig1(t)
	egoU4, egoU5 := g.Ego(3), g.Ego(4)
	if d := hged.Distance(egoU4, egoU5); d != 6 {
		t.Fatalf("Distance = %d, want 6", d)
	}
	d, path := hged.DistanceWithPath(egoU4, egoU5)
	if d != 6 || path.Cost() != 6 {
		t.Fatalf("path distance %d cost %d", d, path.Cost())
	}
	edited, err := path.Apply(egoU4)
	if err != nil {
		t.Fatal(err)
	}
	if !hged.Isomorphic(edited, egoU5) {
		t.Fatal("edit path must reach the target")
	}
	if s := hged.ExplainString(path, nil); !strings.Contains(s, "(1)") {
		t.Fatalf("explanation malformed: %q", s)
	}
}

func TestFacadeNodeDistanceAndThreshold(t *testing.T) {
	g := buildFig1(t)
	if res := hged.NodeDistance(g, 3, 4, hged.Options{}); res.Distance != 6 {
		t.Fatalf("σ(u4,u5) = %d", res.Distance)
	}
	if _, ok := hged.DistanceWithin(g.Ego(3), g.Ego(4), 5); ok {
		t.Fatal("within 5 must fail for distance 6")
	}
	if lb := hged.LowerBound(g.Ego(3), g.Ego(4)); lb != 6 {
		t.Fatalf("lower bound = %d", lb)
	}
}

func TestFacadeSolversAgree(t *testing.T) {
	g := buildFig1(t)
	a, b := g.Ego(3), g.Ego(4)
	bfs := hged.BFS(a, b, hged.Options{}).Distance
	dfs := hged.DFS(a, b, hged.Options{}).Distance
	if bfs != dfs {
		t.Fatalf("BFS %d != DFS %d", bfs, dfs)
	}
	if heu := hged.HEU(a, b, hged.Options{}).Distance; heu < bfs {
		t.Fatalf("HEU %d below exact %d", heu, bfs)
	}
}

func TestFacadePredictor(t *testing.T) {
	// Two communities, one missing superset each.
	g := hged.NewHypergraph(0)
	for i := 0; i < 8; i++ {
		l := hged.Label(1)
		if i >= 4 {
			l = 2
		}
		g.AddNode(l)
	}
	for _, base := range []hged.NodeID{0, 4} {
		g.AddEdge(hged.Label(10+base), base, base+1, base+2)
		g.AddEdge(hged.Label(10+base), base, base+1, base+3)
		g.AddEdge(hged.Label(10+base), base, base+2, base+3)
	}
	p, err := hged.NewPredictor(g, hged.PredictOptions{Lambda: 3, Tau: 5})
	if err != nil {
		t.Fatal(err)
	}
	preds := p.Run()
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	if !hged.VerifyHyperedge(g, []hged.NodeID{0, 1, 2, 3}, 3, 6) {
		t.Fatal("community should verify as a (3,6)-hyperedge")
	}
	ex, err := p.Explain(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Lines()) != ex.Distance {
		t.Fatalf("explanation has %d lines for distance %d", len(ex.Lines()), ex.Distance)
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := buildFig1(t)
	if js, err := hged.NewJS(g, hged.JSOptions{}); err != nil || js == nil {
		t.Fatalf("NewJS: %v", err)
	}
	if _, err := hged.NewLGR(g, hged.LGROptions{}); err != nil {
		t.Fatalf("NewLGR: %v", err)
	}
	if s := hged.Jaccard(g, 0, 1); s <= 0 || s > 1 {
		t.Fatalf("Jaccard = %v", s)
	}
	if hged.CommonNeighbors(g, 0, 1) <= 0 {
		t.Fatal("CN should be positive for co-members")
	}
	if hged.AdamicAdar(g, 0, 1) <= 0 {
		t.Fatal("AA should be positive for co-members")
	}
}

func TestFacadeBipartiteAndStats(t *testing.T) {
	g := buildFig1(t)
	b := hged.ToBipartite(g)
	if len(b.NodeLabels) != 8 || len(b.EdgeLabels) != 4 {
		t.Fatalf("bipartite %dx%d", len(b.NodeLabels), len(b.EdgeLabels))
	}
	st := hged.Summarize(g)
	if st.Nodes != 8 || st.Edges != 4 {
		t.Fatalf("stats %+v", st)
	}
}
