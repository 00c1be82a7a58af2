package predict

import (
	"reflect"
	"testing"

	"hged/internal/gen"
	"hged/internal/hypergraph"
)

// twoComponents builds two structurally different components
// {0,1,2,3} and {4,5,6,7} so σ values are nontrivial.
func twoComponents() *hypergraph.Hypergraph {
	g := hypergraph.New(0)
	for i := 0; i < 8; i++ {
		g.AddNode(hypergraph.Label(1 + i%3))
	}
	g.AddEdge(10, 0, 1)
	g.AddEdge(11, 1, 2, 3)
	g.AddEdge(12, 4, 5)
	g.AddEdge(13, 5, 6, 7)
	return g
}

func TestRebaseCarriesValidEntries(t *testing.T) {
	v := hypergraph.NewVersioned(twoComponents())
	p, err := New(v.Current().Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50
	dFar, okFar := p.Sigma(4, 5, budget)
	dNear, _ := p.Sigma(0, 1, budget)
	if !okFar {
		t.Fatalf("σ(4,5) not within budget %d", budget)
	}
	base := p.Stats().PairsComputed

	b := v.Begin()
	b.AddEdge(14, 0, 2) // touches only component one
	gen, delta := b.Commit()
	np := p.Rebase(gen.Graph(), delta.Invalidates)

	// Untouched pair: carried entry answers without recomputation.
	d2, ok2 := np.Sigma(4, 5, budget)
	if !ok2 || d2 != dFar {
		t.Fatalf("σ(4,5) after rebase = (%d,%v), want (%d,true)", d2, ok2, dFar)
	}
	if got := np.Stats().PairsComputed; got != base {
		t.Fatalf("untouched pair recomputed: PairsComputed %d -> %d", base, got)
	}
	// Touched pair: entry dropped, σ recomputed on the new generation and
	// must agree with a cold predictor.
	d3, ok3 := np.Sigma(0, 1, budget)
	if got := np.Stats().PairsComputed; got != base+1 {
		t.Fatalf("touched pair not recomputed: PairsComputed %d, want %d", got, base+1)
	}
	cold, err := New(gen.Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wd, wok := cold.Sigma(0, 1, budget)
	if d3 != wd || ok3 != wok {
		t.Fatalf("σ(0,1) after rebase = (%d,%v), cold predictor says (%d,%v)", d3, ok3, wd, wok)
	}
	_ = dNear

	// The old predictor still answers against its own generation.
	if d, ok := p.Sigma(0, 1, budget); d != dNear || !ok {
		t.Fatalf("old predictor drifted: σ(0,1) = (%d,%v), want (%d,true)", d, ok, dNear)
	}
}

func TestRebaseFullDropOnRenumber(t *testing.T) {
	v := hypergraph.NewVersioned(twoComponents())
	p, err := New(v.Current().Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50
	p.Sigma(4, 5, budget)
	base := p.Stats().PairsComputed

	b := v.Begin()
	b.RemoveNode(0)
	gen, delta := b.Commit()
	if !delta.Full {
		t.Fatal("RemoveNode must force a full delta")
	}
	np := p.Rebase(gen.Graph(), nil)
	if got := np.Stats().PairsComputed; got != base {
		t.Fatalf("counters not carried: PairsComputed %d, want %d", got, base)
	}
	// Old pair (4,5) is now (3,4) — nothing keyed by old ids survives, so
	// this must recompute rather than serve a renumbered stale entry.
	np.Sigma(3, 4, budget)
	if got := np.Stats().PairsComputed; got != base+1 {
		t.Fatalf("expected a recomputation after renumber, PairsComputed %d, want %d", got, base+1)
	}
}

// TestRebaseCarriesContextEntries pins context σ across Rebase: after a
// batch that touches one community, a rebased HEP run must predict exactly
// what a cold predictor predicts on the new generation, and must compute
// fewer σ pairs than the cold run, because the induced-context entries of
// the untouched community carry over.
func TestRebaseCarriesContextEntries(t *testing.T) {
	v := hypergraph.NewVersioned(twoCommunities())
	p, err := New(v.Current().Graph(), Options{Lambda: 2, Tau: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Run()) == 0 {
		t.Fatal("no predictions before the batch: the test would compare empty sets")
	}

	b := v.Begin()
	b.RemoveEdge(0) // {0,1,2}: changes σ inside the first community
	gen, delta := b.Commit()
	for u := hypergraph.NodeID(4); u < 8; u++ {
		if delta.Invalidates(u) {
			t.Fatalf("batch on the first community invalidated node %d of the second", u)
		}
	}
	np := p.Rebase(gen.Graph(), delta.Invalidates)
	before := np.Stats().PairsComputed
	got := np.Run()
	rebased := np.Stats().PairsComputed - before

	cold, err := New(gen.Graph(), Options{Lambda: 2, Tau: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebased predictions %v, cold predictor %v", got, want)
	}
	if coldPairs := cold.Stats().PairsComputed; rebased >= coldPairs {
		t.Fatalf("rebased run computed %d σ pairs, cold run %d: context entries were not carried", rebased, coldPairs)
	}
}

// TestRebaseKeepsEgoPairsOfValidSets checks the carry rule entry by entry
// after a HEP run and a batch that touches a few nodes: an ego-pair entry
// survives exactly when neither of its two sets holds an invalid node, and
// a full-graph entry exactly when neither endpoint is invalid.
func TestRebaseKeepsEgoPairsOfValidSets(t *testing.T) {
	g, _, err := gen.PlantedCommunities(gen.Config{Nodes: 40, Edges: 80, MeanEdgeSize: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	v := hypergraph.NewVersioned(g)
	p, err := New(v.Current().Graph(), Options{Lambda: 3, Tau: 5, MaxExpansions: 5000})
	if err != nil {
		t.Fatal(err)
	}
	p.Run()
	for u := hypergraph.NodeID(0); u < 6; u++ {
		p.Sigma(u, u+1, 10)
	}

	b := v.Begin()
	b.AddEdge(1, 0, 1)
	b.AddEdge(2, 5, 9, 13)
	next, delta := b.Commit()
	np := p.Rebase(next.Graph(), delta.Invalidates)

	setValid := func(id int32) bool {
		for _, x := range p.cache.egos.sets[id] {
			if delta.Invalidates(x) {
				return false
			}
		}
		return true
	}
	var kept, dropped, mixed int
	for key := range p.cache.memo {
		var want bool
		if key.kind == fullGraph {
			want = !delta.Invalidates(hypergraph.NodeID(key.a)) && !delta.Invalidates(hypergraph.NodeID(key.b))
		} else {
			va, vb := setValid(key.a), setValid(key.b)
			want = va && vb
			if va != vb {
				mixed++
			}
		}
		if _, got := np.cache.memo[key]; got != want {
			t.Fatalf("entry %+v carried = %v, want %v", key, got, want)
		}
		if want {
			kept++
		} else {
			dropped++
		}
	}
	if kept == 0 || dropped == 0 || mixed == 0 {
		t.Fatalf("%d entries kept, %d dropped, %d with one invalid set: the batch does not exercise the rule", kept, dropped, mixed)
	}
}
