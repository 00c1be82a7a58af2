package core

import (
	"testing"

	"hged/internal/hypergraph"
)

// compile returns g's compiled form.
func compile(g *hypergraph.Hypergraph) *graphData {
	d := new(graphData)
	d.compile(g.Freeze(), nil)
	return d
}

func TestRerankNodesStrategy1(t *testing.T) {
	// Labels: node 0,1 share label 1 (degrees 1 and 3); node 2 has label 2
	// (degree 2). Group score of label 1 is 3 > 2, so the label-1 group
	// comes first, highest degree first inside it.
	g := hypergraph.NewLabeled([]hypergraph.Label{1, 1, 2})
	g.AddEdge(9, 0, 1)
	g.AddEdge(9, 1, 2)
	g.AddEdge(9, 1, 2)
	g.AddEdge(9, 1)
	d := compile(g)
	order := make([]int, 4) // padded by one null slot
	rerankNodes(order, d, false)
	want := []int{1, 0, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Disabled: natural order.
	rerankNodes(order, d, true)
	for i := range order {
		if order[i] != i {
			t.Fatalf("disabled rerank should be identity, got %v", order)
		}
	}
}

func TestRerankEdgesStrategy1(t *testing.T) {
	// Edge 0: label 5 card 2; edge 1: label 6 card 3; edge 2: label 5
	// card 1. Label 6's top cardinality (3) beats label 5's (2), so edge 1
	// leads; then the label-5 group by cardinality.
	g := hypergraph.New(4)
	g.AddEdge(5, 0, 1)
	g.AddEdge(6, 0, 1, 2)
	g.AddEdge(5, 3)
	d := compile(g)
	order := make([]int, 3)
	rerankEdges(order, d, false)
	want := []int{1, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRerankEmptyGraphs(t *testing.T) {
	d := compile(hypergraph.New(0))
	got := make([]int, 2)
	rerankNodes(got, d, false)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("empty-graph node order = %v", got)
	}
	rerankEdges(got, d, false)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("empty-graph edge order = %v", got)
	}
}

func TestUpperBoundDeterministic(t *testing.T) {
	g, h := egoPair()
	p1 := newPair(g, h)
	p2 := newPair(g, h)
	ub1, mp1 := p1.upperBound(3, 1)
	ub2, mp2 := p2.upperBound(3, 1)
	if ub1 != ub2 {
		t.Fatalf("upper bounds differ: %d vs %d", ub1, ub2)
	}
	for i := range mp1.NodeMap {
		if mp1.NodeMap[i] != mp2.NodeMap[i] {
			t.Fatal("upper-bound mappings differ across identical runs")
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.maxExpansions() != defaultMaxExpansions {
		t.Fatal("default expansion budget wrong")
	}
	if o.Tau() != unbounded {
		t.Fatal("zero threshold must mean unbounded")
	}
	o.Threshold = 5
	if o.Tau() != 5 {
		t.Fatal("positive threshold must bound the search")
	}
	o.MaxExpansions = 7
	if o.maxExpansions() != 7 {
		t.Fatal("explicit options not honored")
	}
}
