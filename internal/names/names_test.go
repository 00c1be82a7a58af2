package names

import (
	"testing"

	"hged/internal/hypergraph"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	ana := b.LabeledNode("ana", "student")
	bo := b.LabeledNode("bo", "mentor")
	if ana == bo {
		t.Fatal("distinct names must get distinct ids")
	}
	if b.Node("ana") != ana {
		t.Fatal("Node must be idempotent")
	}
	e := b.Edge("reading", "ana", "bo", "cem") // cem created on demand
	g := b.Graph()
	if g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Edge(e).Arity() != 3 {
		t.Fatal("edge arity wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderLabelsInterned(t *testing.T) {
	b := NewBuilder()
	l1 := b.Label("math")
	l2 := b.Label("math")
	l3 := b.Label("bio")
	if l1 != l2 || l1 == l3 {
		t.Fatalf("label interning broken: %d %d %d", l1, l2, l3)
	}
	if b.Label("") != hypergraph.NoLabel {
		t.Fatal("empty label must be NoLabel")
	}
	if b.LabelName(l1) != "math" {
		t.Fatal("label name lost")
	}
	if b.LabelName(hypergraph.NoLabel) != "" {
		t.Fatal("NoLabel name should be empty")
	}
	if b.LabelName(99) == "" {
		t.Fatal("unknown label needs a fallback")
	}
}

func TestBuilderNames(t *testing.T) {
	b := NewBuilder()
	b.Edge("KDD", "han", "ren")
	v, ok := b.NodeID("han")
	if !ok {
		t.Fatal("han should exist")
	}
	if b.NodeName(v) != "han" {
		t.Fatal("node name lost")
	}
	if b.NodeName(99) != "node#99" {
		t.Fatal("unknown node needs a fallback")
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "han" || names[1] != "ren" {
		t.Fatalf("names = %v", names)
	}
}

func TestBuilderGraphIsLive(t *testing.T) {
	b := NewBuilder()
	g := b.Graph()
	b.Edge("l", "a", "b")
	if g.NumEdges() != 1 {
		t.Fatal("Graph should expose the live hypergraph")
	}
}
