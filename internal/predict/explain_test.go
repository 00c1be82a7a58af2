package predict

import (
	"fmt"
	"strings"
	"testing"

	"hged/internal/gen"
	"hged/internal/hypergraph"
)

func TestExplainPrediction(t *testing.T) {
	g := twoCommunities()
	p, _ := New(g, Options{Lambda: 3, Tau: 5})
	preds := p.Run()
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	ex, err := p.ExplainPrediction(preds[0])
	if err != nil {
		t.Fatal(err)
	}
	k := len(ex.Nodes)
	if len(ex.PairSigma) != k*(k-1)/2 {
		t.Fatalf("pair σ count = %d for %d members", len(ex.PairSigma), k)
	}
	// The community is internally isomorphic: all pairwise σ_{G_S} = 0.
	for pair, d := range ex.PairSigma {
		if d != 0 {
			t.Fatalf("pair %v has σ=%d, want 0 for the homogeneous community", pair, d)
		}
	}
	if ex.WorstPath == nil {
		t.Fatal("worst-pair path missing")
	}
	if ex.WorstPath.Cost() != 0 {
		t.Fatalf("worst path cost = %d, want 0", ex.WorstPath.Cost())
	}
}

func TestExplainPredictionWorstPair(t *testing.T) {
	// Prediction with one structurally weaker member: node 4 hangs off the
	// core by a single hyperedge, so its induced ego differs from the
	// others' and the worst pair involves it.
	g := hypergraph.New(5)
	g.AddEdge(1, 0, 1, 2)
	g.AddEdge(1, 0, 1, 3)
	g.AddEdge(1, 2, 3, 4)
	p, _ := New(g, Options{Lambda: 3, Tau: 8})
	ex, err := p.ExplainPrediction(Prediction{Nodes: []hypergraph.NodeID{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	worstHasNode4 := ex.WorstPair[0] == 4 || ex.WorstPair[1] == 4
	if !worstHasNode4 {
		t.Fatalf("worst pair %v should involve the peripheral node 4 (σ map %v)",
			ex.WorstPair, ex.PairSigma)
	}
	if ex.WorstPath.Cost() == 0 {
		t.Fatal("worst pair should need edits")
	}
}

func TestExplainPredictionTooSmall(t *testing.T) {
	g := hypergraph.New(2)
	p, _ := New(g, Options{})
	if _, err := p.ExplainPrediction(Prediction{Nodes: []hypergraph.NodeID{0}}); err == nil {
		t.Fatal("singleton prediction must error")
	}
}

// TestExplainCappedIsLabelled checks that an explanation whose search hit
// MaxExpansions says so: Exact is false and String prints "σ(u,v) ≤ d
// (capped)", while the uncapped explanation of the same pair is exact, no
// larger, and printed "σ(u,v) = d". The worst pair of ExplainPrediction
// carries the same flag.
func TestExplainCappedIsLabelled(t *testing.T) {
	g, _, err := gen.PlantedCommunities(gen.Config{Nodes: 16, Edges: 20, MeanEdgeSize: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	capped, _ := New(g, Options{MaxExpansions: 1})
	exact, _ := New(g, Options{MaxExpansions: 200_000})

	ex, err := capped.Explain(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Exact {
		t.Fatal("σ(0,2) proved within one expansion; the test checks nothing")
	}
	if want := fmt.Sprintf("σ(0,2) ≤ %d (capped):", ex.Distance); !strings.HasPrefix(ex.String(), want) {
		t.Fatalf("capped explanation reads %q, want prefix %q", ex.String(), want)
	}
	full, err := exact.Explain(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Exact || full.Distance > ex.Distance {
		t.Fatalf("uncapped σ(0,2) = %d (exact %v) against capped incumbent %d", full.Distance, full.Exact, ex.Distance)
	}
	if want := fmt.Sprintf("σ(0,2) = %d:", full.Distance); !strings.HasPrefix(full.String(), want) {
		t.Fatalf("exact explanation reads %q, want prefix %q", full.String(), want)
	}

	// Inside NEI(0), the worst pair's search needs more than one
	// expansion.
	pred := Prediction{Nodes: g.Neighbors(0)}
	for _, c := range []struct {
		p     *Predictor
		exact bool
	}{{capped, false}, {exact, true}} {
		ex, err := c.p.ExplainPrediction(pred)
		if err != nil {
			t.Fatal(err)
		}
		if ex.WorstExact != c.exact {
			t.Fatalf("worst pair %v has WorstExact %v, want %v", ex.WorstPair, ex.WorstExact, c.exact)
		}
	}
}
