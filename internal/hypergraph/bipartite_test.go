package hypergraph

import (
	"reflect"
	"testing"
)

func TestToBipartiteFig1(t *testing.T) {
	h := Fig1()
	b := ToBipartite(h)
	if len(b.NodeLabels) != 8 || len(b.EdgeLabels) != 4 {
		t.Fatalf("bipartite dims %dx%d, want 8x4", len(b.NodeLabels), len(b.EdgeLabels))
	}
	// Σ|E| = 3+3+3+4 = 13.
	incidences := 0
	for _, a := range b.Adj {
		incidences += len(a)
	}
	if incidences != 13 {
		t.Fatalf("incidences = %d, want 13", incidences)
	}
	if !reflect.DeepEqual(b.Adj[3], []NodeID{U(4), U(5), U(7), U(8)}) {
		t.Fatalf("Adj[E4] = %v", b.Adj[3])
	}
	if !reflect.DeepEqual(b.NodeAdj[U(4)], []EdgeID{0, 1, 3}) {
		t.Fatalf("NodeAdj[u4] = %v", b.NodeAdj[U(4)])
	}
	if b.EdgeLabels[0] != LabelOrange || b.EdgeLabels[3] != LabelGrey {
		t.Fatal("edge labels not carried into bipartite view")
	}
}

func TestBipartiteRoundTrip(t *testing.T) {
	h := Fig1()
	back := FromBipartite(ToBipartite(h))
	if !Isomorphic(h, back) {
		t.Fatal("bipartite round trip should be isomorphic to the original")
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped graph invalid: %v", err)
	}
}

func TestBipartiteIsDeepCopy(t *testing.T) {
	h := Fig1()
	b := ToBipartite(h)
	b.NodeLabels[0] = 99
	b.Adj[0][0] = 7
	if h.NodeLabel(0) == 99 {
		t.Fatal("bipartite shares node labels with hypergraph")
	}
	if h.Edge(0).Nodes[0] == 7 {
		t.Fatal("bipartite shares adjacency with hypergraph")
	}
}

// FromBipartite reconstructs the hypergraph a bipartite view was built
// from: the round-trip tests' independent inverse of ToBipartite.
func FromBipartite(b *Bipartite) *Hypergraph {
	h := NewLabeled(b.NodeLabels)
	for j, nodes := range b.Adj {
		h.AddEdge(b.EdgeLabels[j], nodes...)
	}
	return h
}
