package hypergraph

import (
	"reflect"
	"testing"
)

func TestEmptyHypergraph(t *testing.T) {
	h := New(0)
	if h.NumNodes() != 0 || h.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", h.NumNodes(), h.NumEdges())
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
}

func TestAddNodeAndEdge(t *testing.T) {
	h := New(0)
	a := h.AddNode(1)
	b := h.AddNode(2)
	c := h.AddNode(1)
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("node ids = %d,%d,%d", a, b, c)
	}
	e := h.AddEdge(5, c, a) // unsorted input
	if e != 0 {
		t.Fatalf("edge id = %d", e)
	}
	got := h.Edge(e)
	if !reflect.DeepEqual(got.Nodes, []NodeID{0, 2}) {
		t.Fatalf("edge nodes = %v, want [0 2]", got.Nodes)
	}
	if got.Label != 5 {
		t.Fatalf("edge label = %d", got.Label)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestAddEdgeDeduplicatesNodes(t *testing.T) {
	h := New(3)
	e := h.AddEdge(NoLabel, 1, 1, 2, 2, 1)
	if got := h.Edge(e).Nodes; !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Fatalf("nodes = %v, want [1 2]", got)
	}
}

func TestAddEdgeEmptyHyperedge(t *testing.T) {
	h := New(2)
	e := h.AddEdge(7)
	if h.Edge(e).Arity() != 0 {
		t.Fatalf("arity = %d, want 0", h.Edge(e).Arity())
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	h := New(2)
	h.AddEdge(NoLabel, 0, 5)
}

func TestDegreeAndIncidence(t *testing.T) {
	h := Fig1()
	// u4 (id 3) is in E1, E2, E4.
	if d := h.Degree(U(4)); d != 3 {
		t.Fatalf("DEG(u4) = %d, want 3", d)
	}
	if d := h.Degree(U(3)); d != 1 {
		t.Fatalf("DEG(u3) = %d, want 1", d)
	}
	inc := h.IncidentEdges(U(4))
	if !reflect.DeepEqual(inc, []EdgeID{0, 1, 3}) {
		t.Fatalf("incident(u4) = %v", inc)
	}
}

func TestNeighborsMatchesExample1(t *testing.T) {
	h := Fig1()
	// Example 1: NEI(u4) = {u1,u2,u4,u5,u6,u7,u8}.
	want4 := []NodeID{U(1), U(2), U(4), U(5), U(6), U(7), U(8)}
	if got := h.Neighbors(U(4)); !reflect.DeepEqual(got, want4) {
		t.Fatalf("NEI(u4) = %v, want %v", got, want4)
	}
	// Example 1: NEI(u5) = {u2,u3,u4,u5,u7,u8}.
	want5 := []NodeID{U(2), U(3), U(4), U(5), U(7), U(8)}
	if got := h.Neighbors(U(5)); !reflect.DeepEqual(got, want5) {
		t.Fatalf("NEI(u5) = %v, want %v", got, want5)
	}
	if got := h.NumNeighbors(U(4)); got != 7 {
		t.Fatalf("|NEI(u4)| = %d, want 7", got)
	}
}

func TestNeighborsIncludesSelfEvenIsolated(t *testing.T) {
	h := New(3)
	if got := h.Neighbors(1); !reflect.DeepEqual(got, []NodeID{1}) {
		t.Fatalf("NEI(isolated) = %v, want [1]", got)
	}
}

func TestHyperedgeContains(t *testing.T) {
	h := Fig1()
	e4 := h.Edge(3)
	for _, v := range []NodeID{U(4), U(5), U(7), U(8)} {
		if !e4.Contains(v) {
			t.Fatalf("E4 should contain %d", v)
		}
	}
	for _, v := range []NodeID{U(1), U(2), U(3), U(6)} {
		if e4.Contains(v) {
			t.Fatalf("E4 should not contain %d", v)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	h := Fig1()
	// Induce on NEI(u5) = {u2,u3,u4,u5,u7,u8}: only E3 and E4 survive.
	sub := h.InducedSubgraph(h.Neighbors(U(5)))
	if sub.NumNodes() != 6 {
		t.Fatalf("n = %d, want 6", sub.NumNodes())
	}
	if sub.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", sub.NumEdges())
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("invalid induced subgraph: %v", err)
	}
	// Labels preserved; orig ids recoverable.
	for v := 0; v < sub.NumNodes(); v++ {
		orig := sub.OrigID(NodeID(v))
		if sub.NodeLabel(NodeID(v)) != h.NodeLabel(orig) {
			t.Fatalf("label mismatch for induced node %d (orig %d)", v, orig)
		}
	}
	// E3 = {u2,u3,u5} should appear with grey label.
	foundE3 := false
	for _, e := range sub.Edges() {
		if e.Arity() == 3 && e.Label == LabelGrey {
			foundE3 = true
		}
	}
	if !foundE3 {
		t.Fatal("induced subgraph missing E3")
	}
}

func TestInducedSubgraphDedupsInput(t *testing.T) {
	h := Fig1()
	sub := h.InducedSubgraph([]NodeID{2, 2, 1, 1})
	if sub.NumNodes() != 2 {
		t.Fatalf("n = %d, want 2", sub.NumNodes())
	}
}

func TestEgoNetworks(t *testing.T) {
	h := Fig1()
	ego4 := h.Ego(U(4))
	if ego4.NumNodes() != 7 || ego4.NumEdges() != 3 {
		t.Fatalf("EGO(u4): n=%d m=%d, want n=7 m=3", ego4.NumNodes(), ego4.NumEdges())
	}
	ego5 := h.Ego(U(5))
	if ego5.NumNodes() != 6 || ego5.NumEdges() != 2 {
		t.Fatalf("EGO(u5): n=%d m=%d, want n=6 m=2", ego5.NumNodes(), ego5.NumEdges())
	}
	if err := ego4.Validate(); err != nil {
		t.Fatalf("EGO(u4) invalid: %v", err)
	}
	if err := ego5.Validate(); err != nil {
		t.Fatalf("EGO(u5) invalid: %v", err)
	}
}

func TestNestedInducedSubgraphOrigIDs(t *testing.T) {
	h := Fig1()
	sub := h.InducedSubgraph([]NodeID{U(2), U(3), U(4), U(5)})
	sub2 := sub.InducedSubgraph([]NodeID{0, 2})
	// sub nodes are [u2,u3,u4,u5]; sub2 keeps locals 0 and 2 → u2, u4.
	if got := sub2.OrigID(0); got != U(2) {
		t.Fatalf("OrigID(0) = %d, want u2=%d", got, U(2))
	}
	if got := sub2.OrigID(1); got != U(4) {
		t.Fatalf("OrigID(1) = %d, want u4=%d", got, U(4))
	}
}

func TestClone(t *testing.T) {
	h := Fig1()
	c := h.Clone()
	if c.NumNodes() != h.NumNodes() || c.NumEdges() != h.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	c.SetNodeLabel(0, 99)
	if h.NodeLabel(0) == 99 {
		t.Fatal("clone shares node labels with original")
	}
	c.AddEdge(NoLabel, 0, 1)
	if h.NumEdges() == c.NumEdges() {
		t.Fatal("clone shares edge slice with original")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	h := Fig1()
	h.edges[0].Nodes[0] = 99 // corrupt: out of range
	if err := h.Validate(); err == nil {
		t.Fatal("Validate missed out-of-range node")
	}
	h = Fig1()
	h.incidence[0] = append(h.incidence[0], 3) // corrupt: bogus incidence
	if err := h.Validate(); err == nil {
		t.Fatal("Validate missed inconsistent incidence")
	}
}

func TestStringRendering(t *testing.T) {
	h := New(2)
	h.AddEdge(4, 0, 1)
	if got := h.String(); got != "H(n=2,m=1){0:[0 1]@4}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestHyperedgeKey(t *testing.T) {
	h := New(300)
	e1 := h.AddEdge(NoLabel, 1, 2, 299)
	e2 := h.AddEdge(NoLabel, 299, 2, 1)
	e3 := h.AddEdge(NoLabel, 1, 2, 3)
	key := func(e EdgeID) string { return string(h.Edge(e).AppendKey(nil)) }
	if key(e1) != key(e2) {
		t.Fatal("identical node sets must share a key")
	}
	if key(e1) == key(e3) {
		t.Fatal("different node sets must have different keys")
	}
}
