package predict

import (
	"reflect"
	"testing"

	"hged/internal/hypergraph"
)

// twoCommunities builds a hypergraph with two 4-node communities (labels 1
// and 2) and all-but-one of the size-3 hyperedges inside each. The missing
// triples are natural prediction targets.
func twoCommunities() *hypergraph.Hypergraph {
	g := hypergraph.New(0)
	for i := 0; i < 4; i++ {
		g.AddNode(1)
	}
	for i := 0; i < 4; i++ {
		g.AddNode(2)
	}
	add := func(l hypergraph.Label, base hypergraph.NodeID) {
		// Three of the four triples of {base..base+3}.
		g.AddEdge(l, base, base+1, base+2)
		g.AddEdge(l, base, base+1, base+3)
		g.AddEdge(l, base, base+2, base+3)
	}
	add(10, 0)
	add(20, 4)
	return g
}

func TestOptionsNormalize(t *testing.T) {
	o, err := Options{}.Normalize()
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if o.Lambda != 3 || o.Tau != 5 || o.MinSize != 2 || o.MaxSize != 8 || o.MaxEgoNodes != 64 {
		t.Fatalf("defaults = %+v", o)
	}
	if _, err := (Options{Lambda: -1}).Normalize(); err == nil {
		t.Fatal("λ < 1 must fail")
	}
	if _, err := (Options{Tau: -3}).Normalize(); err == nil {
		t.Fatal("τ < 0 must fail")
	}
	if _, err := (Options{MinSize: 5, MaxSize: 3}).Normalize(); err == nil {
		t.Fatal("MinSize > MaxSize must fail")
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgBFS.String() != "HEP-BFS" || AlgDFS.String() != "HEP-DFS" || AlgHEU.String() != "HEP-HEU" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Fatal("unknown algorithm rendering wrong")
	}
}

func TestRunPredictsMissingCommunitySets(t *testing.T) {
	g := twoCommunities()
	p, err := New(g, Options{Lambda: 3, Tau: 5})
	if err != nil {
		t.Fatal(err)
	}
	preds := p.Run()
	if len(preds) == 0 {
		t.Fatal("expected predictions")
	}
	// Every prediction must stay inside one community (no cross-community
	// structural ties exist).
	for _, pr := range preds {
		firstSide := pr.Nodes[0] < 4
		for _, v := range pr.Nodes {
			if (v < 4) != firstSide {
				t.Fatalf("prediction crosses communities: %v", pr.Nodes)
			}
		}
	}
	// The full community {0,1,2,3} (a missing hyperedge superset) should
	// be among the predictions.
	found := false
	for _, pr := range preds {
		if reflect.DeepEqual(pr.Nodes, []hypergraph.NodeID{0, 1, 2, 3}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("community set not predicted; got %v", preds)
	}
}

func TestRunEmitsOnlyVerifiedHyperedges(t *testing.T) {
	g := twoCommunities()
	p, _ := New(g, Options{Lambda: 3, Tau: 5})
	for _, pr := range p.Run() {
		if !Verify(g, pr.Nodes, 3, 5) {
			t.Fatalf("prediction %v does not verify as a (3,5)-hyperedge", pr.Nodes)
		}
	}
}

func TestRunExcludesExistingHyperedges(t *testing.T) {
	g := twoCommunities()
	p, _ := New(g, Options{Lambda: 3, Tau: 5, MaxSize: 3})
	for _, pr := range p.Run() {
		sub := g.InducedSubgraph(pr.Nodes)
		for _, e := range sub.Edges() {
			if e.Arity() == len(pr.Nodes) {
				t.Fatalf("prediction %v duplicates an existing hyperedge", pr.Nodes)
			}
		}
	}
}

func TestRunIncludeExisting(t *testing.T) {
	g := twoCommunities()
	excl, _ := New(g, Options{Lambda: 3, Tau: 5, MaxSize: 3})
	incl, _ := New(g, Options{Lambda: 3, Tau: 5, MaxSize: 3, IncludeExisting: true})
	if len(incl.Run()) <= len(excl.Run()) {
		t.Fatal("IncludeExisting should yield strictly more candidates here")
	}
}

func TestHEPDFSMatchesHEPBFS(t *testing.T) {
	g := twoCommunities()
	bfs, _ := New(g, Options{Lambda: 3, Tau: 5})
	dfs, _ := New(g, Options{Lambda: 3, Tau: 5, Algorithm: AlgDFS})
	pb, pd := bfs.Run(), dfs.Run()
	if len(pb) != len(pd) {
		t.Fatalf("HEP-BFS found %d, HEP-DFS found %d", len(pb), len(pd))
	}
	for i := range pb {
		if !reflect.DeepEqual(pb[i].Nodes, pd[i].Nodes) {
			t.Fatalf("prediction %d differs: %v vs %v", i, pb[i].Nodes, pd[i].Nodes)
		}
	}
}

func TestSigmaMemoization(t *testing.T) {
	g := twoCommunities()
	p, _ := New(g, Options{Lambda: 3, Tau: 5})
	d1, ok1 := p.Sigma(0, 1, 15)
	if !ok1 {
		t.Fatal("same-community pair should be within 15")
	}
	before := p.Stats().PairsComputed
	d2, ok2 := p.Sigma(1, 0, 15)
	after := p.Stats()
	if d1 != d2 || ok1 != ok2 {
		t.Fatal("σ must be symmetric via the cache key")
	}
	if after.PairsComputed != before {
		t.Fatal("second lookup must hit the cache")
	}
	if after.PairsCached == 0 {
		t.Fatal("cache hit counter not incremented")
	}
}

func TestSigmaSelfIsZero(t *testing.T) {
	g := twoCommunities()
	p, _ := New(g, Options{})
	if d, ok := p.Sigma(2, 2, 0); !ok || d != 0 {
		t.Fatalf("σ(v,v) = %d,%v; want 0,true", d, ok)
	}
}

func TestSigmaBudgetSemantics(t *testing.T) {
	g := hypergraph.Fig1()
	p, _ := New(g, Options{Lambda: 2, Tau: 6})
	d, ok := p.Sigma(hypergraph.U(4), hypergraph.U(5), 6)
	if !ok || d != 6 {
		t.Fatalf("σ(u4,u5) = %d,%v; want 6,true at budget 6", d, ok)
	}
	if _, ok := p.Sigma(hypergraph.U(4), hypergraph.U(5), 5); ok {
		t.Fatal("budget 5 must reject distance 6")
	}
	// A larger budget after a proven exceedance must recompute correctly.
	p2, _ := New(g, Options{Lambda: 2, Tau: 6})
	if _, ok := p2.Sigma(hypergraph.U(4), hypergraph.U(5), 3); ok {
		t.Fatal("budget 3 must reject distance 6")
	}
	if d, ok := p2.Sigma(hypergraph.U(4), hypergraph.U(5), 10); !ok || d != 6 {
		t.Fatalf("budget 10 after exceedance: d=%d ok=%v", d, ok)
	}
}

func TestRunOnFig1EmitsVerifiedSets(t *testing.T) {
	g := hypergraph.Fig1()
	p, err := New(g, Options{Lambda: 2, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	preds := p.Run()
	for _, pr := range preds {
		if !Verify(g, pr.Nodes, 2, 6) {
			t.Fatalf("prediction %v violates Definition 4", pr.Nodes)
		}
	}
	st := p.Stats()
	if st.Seeds == 0 {
		t.Fatal("no seeds recorded")
	}
}

func TestPeelEnforcesDefinition4(t *testing.T) {
	// A clique-ish community plus one structurally alien attachment: node
	// 4 shares only a single pair edge with node 0, so inside the induced
	// subgraph its ego diverges and it must be peeled at tight τ.
	g := hypergraph.New(5)
	g.AddEdge(1, 0, 1, 2)
	g.AddEdge(1, 0, 1, 3)
	g.AddEdge(1, 0, 2, 3)
	g.AddEdge(1, 1, 2, 3)
	g.AddEdge(2, 0, 4)
	p, _ := New(g, Options{Lambda: 1, Tau: 2})
	s := p.peel([]hypergraph.NodeID{0, 1, 2, 3, 4}, new(egoScratch))
	for _, v := range s {
		if v == 4 {
			t.Fatalf("node 4 should have been peeled, got %v", s)
		}
	}
	if len(s) != 4 {
		t.Fatalf("community should survive peeling, got %v", s)
	}
	if !Verify(g, s, 1, 2) {
		t.Fatalf("peeled set %v must satisfy Definition 4", s)
	}
}

func TestVerifyDefinition4(t *testing.T) {
	g := twoCommunities()
	if !Verify(g, []hypergraph.NodeID{0, 1, 2, 3}, 3, 6) {
		t.Fatal("the community should verify as a (3,6)-hyperedge")
	}
	// Cross-community sets induce no shared hyperedges; singleton egos are
	// isomorphic so τ holds trivially, but with the communities' different
	// labels the pairwise bound at τ=0 must fail.
	if Verify(g, []hypergraph.NodeID{0, 4}, 1, 0) {
		t.Fatal("cross-community pair should fail at τ=0")
	}
}

func TestExplainPair(t *testing.T) {
	g := hypergraph.Fig1()
	p, _ := New(g, Options{Lambda: 2, Tau: 6})
	ex, err := p.Explain(hypergraph.U(4), hypergraph.U(5))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Distance != 6 {
		t.Fatalf("explained distance = %d, want 6", ex.Distance)
	}
	if ex.Path.Cost() != 6 {
		t.Fatalf("path cost = %d", ex.Path.Cost())
	}
	if len(ex.Lines()) != 6 {
		t.Fatalf("explanation lines = %d, want 6", len(ex.Lines()))
	}
	if ex.String() == "" {
		t.Fatal("empty narrative")
	}
}

func TestExplainEgoGuard(t *testing.T) {
	g := twoCommunities()
	p, _ := New(g, Options{MaxEgoNodes: 2})
	if _, err := p.Explain(0, 1); err == nil {
		t.Fatal("ego guard should reject oversized egos")
	}
}

func TestParallelRunMatchesSequential(t *testing.T) {
	g := twoCommunities()
	seq, _ := New(g, Options{Lambda: 3, Tau: 5})
	par, _ := New(g, Options{Lambda: 3, Tau: 5, Parallelism: 4})
	ps, pp := seq.Run(), par.Run()
	if len(ps) != len(pp) {
		t.Fatalf("sequential found %d, parallel %d", len(ps), len(pp))
	}
	for i := range ps {
		if !reflect.DeepEqual(ps[i].Nodes, pp[i].Nodes) {
			t.Fatalf("prediction %d differs: %v vs %v", i, ps[i].Nodes, pp[i].Nodes)
		}
	}
	if par.Stats().PairsComputed == 0 {
		t.Fatal("parallel run computed nothing")
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := twoCommunities()
	p, _ := New(g, Options{Lambda: 3, Tau: 5})
	p.Run()
	st := p.Stats()
	if st.Seeds == 0 {
		t.Fatal("no seeds recorded")
	}
	if st.PairsComputed == 0 {
		t.Fatal("no σ computations recorded")
	}
	if st.PairsCached == 0 {
		t.Fatal("no cache hits recorded: growth must reuse memoized σ values")
	}
	if st.Components == 0 {
		t.Fatal("no grown candidates recorded")
	}
}

func TestGrowRespectsMaxSize(t *testing.T) {
	// A long chain of pair edges with identical labels: growth must stop
	// at MaxSize even though everything is similar.
	g := hypergraph.New(20)
	for i := 0; i < 19; i++ {
		g.AddEdge(1, hypergraph.NodeID(i), hypergraph.NodeID(i+1))
	}
	p, _ := New(g, Options{Lambda: 10, Tau: 8, MaxSize: 5})
	for _, pr := range p.Run() {
		if len(pr.Nodes) > 5 {
			t.Fatalf("prediction %v exceeds MaxSize", pr.Nodes)
		}
	}
}
