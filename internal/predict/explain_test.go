package predict

import (
	"fmt"
	"strings"
	"testing"

	"hged/internal/dataset"
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
	if len(ex.Pairs) != k*(k-1)/2 {
		t.Fatalf("%d pairs for %d members", len(ex.Pairs), k)
	}
	// The community is internally isomorphic: all pairwise σ_{G_S} = 0.
	for _, pr := range ex.Pairs {
		if pr.Sigma != 0 {
			t.Fatalf("pair %+v has σ=%d, want 0 for the homogeneous community", pr, pr.Sigma)
		}
	}
	if ex.Tightest.Path == nil {
		t.Fatal("tightest-pair path missing")
	}
	if ex.Tightest.Path.Cost() != 0 {
		t.Fatalf("tightest path cost = %d, want 0", ex.Tightest.Path.Cost())
	}
}

// weakMember is a hypergraph whose node 4 hangs off the core {0,1,2,3} by
// a single hyperedge, so its ego inside G_{0..4} differs from the others':
// σ(2,4) = σ(3,4) = 10, and both pairs share that hyperedge.
func weakMember() *hypergraph.Hypergraph {
	g := hypergraph.New(5)
	g.AddEdge(1, 0, 1, 2)
	g.AddEdge(1, 0, 1, 3)
	g.AddEdge(1, 2, 3, 4)
	return g
}

func TestExplainPredictionWorstPair(t *testing.T) {
	// At τ = 10 the pairs (2,4) and (3,4) are within their budget τ with
	// no slack left, the least of all pairs: the tightest pair, the first
	// of the two, involves the peripheral node 4.
	p, _ := New(weakMember(), Options{Lambda: 3, Tau: 10})
	ex, err := p.ExplainPrediction(Prediction{Nodes: []hypergraph.NodeID{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if tp := ex.Tightest; tp.U != 2 || tp.V != 4 || ex.Budget != 10 || tp.Distance != 10 {
		t.Fatalf("tightest pair (%d,%d) σ=%d budget %d, want (2,4) σ=10 budget 10 (pairs %+v)",
			tp.U, tp.V, tp.Distance, ex.Budget, ex.Pairs)
	}
	if ex.Tightest.Path.Cost() != 10 {
		t.Fatalf("tightest path costs %d, want 10", ex.Tightest.Path.Cost())
	}
}

// TestExplainPredictionViolation checks that a set failing Definition 4
// is not explained: at τ = 8, σ(2,4) = 10 is over the pair's budget τ,
// and the error names that pair, the first one over its budget, with the
// bound the solver proved.
func TestExplainPredictionViolation(t *testing.T) {
	p, _ := New(weakMember(), Options{Lambda: 3, Tau: 8})
	_, err := p.ExplainPrediction(Prediction{Nodes: []hypergraph.NodeID{0, 1, 2, 3, 4}})
	if err == nil {
		t.Fatal("a set that fails Definition 4 was explained")
	}
	if want := "pair (2,4) is not within its budget 8, σ ≥ 9"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestExplainPredictionTooSmall(t *testing.T) {
	g := hypergraph.New(2)
	p, _ := New(g, Options{})
	// {0, 0} is the singleton too: G_S holds one node and no pair.
	for _, nodes := range [][]hypergraph.NodeID{{0}, {0, 0}} {
		if _, err := p.ExplainPrediction(Prediction{Nodes: nodes}); err == nil {
			t.Fatalf("prediction %v with one distinct node must error", nodes)
		}
	}
}

// TestExplainCappedIsLabelled checks that an explanation whose search hit
// MaxExpansions says so: Exact is false and String prints "σ(u,v) ≤ d
// (capped)", while the uncapped explanation of the same pair is exact, no
// larger, and printed "σ(u,v) = d". The tightest pair of
// ExplainPrediction carries the same flag.
func TestExplainCappedIsLabelled(t *testing.T) {
	g, _, err := gen.PlantedCommunities(gen.Config{Nodes: 16, Edges: 20, MeanEdgeSize: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	capped, _ := New(g, Options{Lambda: 3, Tau: 5, MaxExpansions: 1})
	exact, _ := New(g, Options{Lambda: 3, Tau: 5, MaxExpansions: 200_000})

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

	// {1,3,7,11}, one of the uncapped predictor's (3,5)-hyperedges, is
	// explained by the pair (1,11) at budget τ. Its search needs more
	// than one expansion: the capped incumbent is within the budget but
	// not proved, and the explanation prints it so.
	pred := Prediction{Nodes: []hypergraph.NodeID{1, 3, 7, 11}}
	for _, c := range []struct {
		p     *Predictor
		exact bool
		head  string
	}{{capped, false, "budget 5, σ(1,11) ≤ 5 (capped):"}, {exact, true, "budget 5, σ(1,11) = 3:"}} {
		ex, err := c.p.ExplainPrediction(pred)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Tightest.Exact != c.exact || !strings.HasPrefix(ex.String(), c.head) {
			t.Fatalf("explanation (Exact %v) reads %q, want prefix %q", ex.Tightest.Exact, ex.String(), c.head)
		}
	}
}

// TestExplainPredictionReplays checks every explanation of a replica run
// instead of trusting it: HEP at λ=3, τ=5 and a 10k cap on the HS replica,
// and on PS with Table III's split (75% training, seed 1) outside -short.
// Every prediction must be explained; every pair's budget must be τ
// exactly when the two members share a hyperedge of G_S, as read off G_S's
// hyperedges; the tightest pair must be within its budget with the least
// slack of all pairs; and its edit path must cost σ when σ is exact and
// must turn U's ego in G_S into a hypergraph isomorphic to V's.
func TestExplainPredictionReplays(t *testing.T) {
	const lambda, tau = 3, 5
	for _, c := range []struct {
		name  string
		split bool
	}{{"HS", false}, {"PS", true}} {
		t.Run(c.name, func(t *testing.T) {
			if c.split && testing.Short() {
				t.Skip("Table III's PS run in -short")
			}
			spec, err := dataset.Lookup(c.name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := spec.Replica(0)
			if err != nil {
				t.Fatal(err)
			}
			if c.split {
				if g, _, err = dataset.Split(g, 0.75, 1); err != nil {
					t.Fatal(err)
				}
			}
			p, err := New(g, Options{Lambda: lambda, Tau: tau, MaxExpansions: 10_000})
			if err != nil {
				t.Fatal(err)
			}
			preds := p.Run()
			if len(preds) == 0 {
				t.Fatal("no predictions")
			}
			for _, pr := range preds {
				if err := checkExplanation(g, p, pr, lambda, tau); err != nil {
					t.Errorf("%v: %v", pr.Nodes, err)
				}
			}
			t.Logf("%d predictions explained and replayed", len(preds))
		})
	}
}

// checkExplanation checks p's explanation of pr against G_S, built here
// from the host g.
func checkExplanation(g *hypergraph.Hypergraph, p *Predictor, pr Prediction, lambda, tau int) error {
	ex, err := p.ExplainPrediction(pr)
	if err != nil {
		return err
	}
	sub := g.InducedSubgraph(pr.Nodes)
	pos := make(map[hypergraph.NodeID]hypergraph.NodeID) // host id → G_S id
	for i := 0; i < sub.NumNodes(); i++ {
		pos[sub.OrigID(hypergraph.NodeID(i))] = hypergraph.NodeID(i)
	}
	shared := make(map[[2]hypergraph.NodeID]bool)
	for e := 0; e < sub.NumEdges(); e++ {
		ms := sub.Edge(hypergraph.EdgeID(e)).Nodes
		for a := range ms {
			for b := range ms {
				shared[[2]hypergraph.NodeID{sub.OrigID(ms[a]), sub.OrigID(ms[b])}] = true
			}
		}
	}
	if k := sub.NumNodes(); len(ex.Pairs) != k*(k-1)/2 {
		return fmt.Errorf("%d pairs for %d members", len(ex.Pairs), k)
	}
	minSlack := ex.Pairs[0].Budget - ex.Pairs[0].Sigma
	for _, mp := range ex.Pairs {
		budget := lambda * tau
		if shared[[2]hypergraph.NodeID{mp.U, mp.V}] {
			budget = tau
		}
		if mp.Budget != budget {
			return fmt.Errorf("pair (%d,%d) has budget %d, want %d", mp.U, mp.V, mp.Budget, budget)
		}
		minSlack = min(minSlack, mp.Budget-mp.Sigma)
	}
	tp := ex.Tightest
	if tp.Distance > ex.Budget {
		return fmt.Errorf("tightest pair (%d,%d) has σ %d over its budget %d", tp.U, tp.V, tp.Distance, ex.Budget)
	}
	if slack := ex.Budget - tp.Distance; slack != minSlack {
		return fmt.Errorf("tightest pair (%d,%d) has slack %d, the least is %d", tp.U, tp.V, slack, minSlack)
	}
	if tp.Exact && tp.Path.Cost() != tp.Distance {
		return fmt.Errorf("tightest pair (%d,%d): path costs %d, σ = %d", tp.U, tp.V, tp.Path.Cost(), tp.Distance)
	}
	got, err := tp.Path.Apply(sub.Ego(pos[tp.U]))
	if err != nil {
		return fmt.Errorf("tightest pair (%d,%d): %v", tp.U, tp.V, err)
	}
	if !hypergraph.Isomorphic(got, sub.Ego(pos[tp.V])) {
		return fmt.Errorf("tightest pair (%d,%d): the path does not turn U's ego into V's", tp.U, tp.V)
	}
	return nil
}
