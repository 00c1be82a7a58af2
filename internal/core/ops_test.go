package core

import (
	"strings"
	"testing"

	"hged/internal/hypergraph"
)

func TestOpKindString(t *testing.T) {
	kinds := map[OpKind]string{
		OpNodeDelete:  "node-delete",
		OpNodeInsert:  "node-insert",
		OpEdgeDelete:  "edge-delete",
		OpEdgeInsert:  "edge-insert",
		OpEdgeReduce:  "edge-reduce",
		OpEdgeExtend:  "edge-extend",
		OpNodeRelabel: "node-relabel",
		OpEdgeRelabel: "edge-relabel",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%v != %s", k, want)
		}
	}
	if !strings.HasPrefix(OpKind(99).String(), "OpKind(") {
		t.Fatal("unknown kind should render numerically")
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Kind: OpNodeDelete, Node: 3}, "delete node #3"},
		{Op{Kind: OpNodeInsert, Node: 2, Label: 7}, "insert node #2 with label 7"},
		{Op{Kind: OpEdgeReduce, Edge: 1, Node: 4}, "reduce hyperedge #1 by node #4"},
		{Op{Kind: OpEdgeExtend, Edge: 0, Node: 5}, "extend hyperedge #0 with node #5"},
		{Op{Kind: OpEdgeRelabel, Edge: 2, Label: 9}, "relabel hyperedge #2 to 9"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Fatalf("op string = %q, want %q", got, c.want)
		}
	}
}

func TestApplyManualSequence(t *testing.T) {
	// Rebuild Example 2 manually: transform EGO(u4) toward EGO(u5).
	g, h := egoPair()
	// EGO(u4) local ids: nodes are NEI(u4)={u1,u2,u4,u5,u6,u7,u8} → 0..6,
	// so u6 is local node 4. Edges: E1→0, E2→1, E4→2; E2 = {u4,u6,u7} →
	// locals {2,4,5}.
	path := &Path{Ops: []Op{
		{Kind: OpEdgeRelabel, Edge: 0, Label: hypergraph.LabelGrey}, // E1: orange→grey
		{Kind: OpEdgeReduce, Edge: 1, Node: 2},                      // u4 out of E2
		{Kind: OpEdgeReduce, Edge: 1, Node: 4},                      // u6 out of E2
		{Kind: OpEdgeReduce, Edge: 1, Node: 5},                      // u7 out of E2
		{Kind: OpEdgeDelete, Edge: 1},                               // delete E2
		{Kind: OpNodeDelete, Node: 4},                               // delete u6
	}}
	got, err := path.Apply(g)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !hypergraph.Isomorphic(got, h) {
		t.Fatalf("Example 2's six operations must reach EGO(u5):\ngot %v\nwant %v", got, h)
	}
}

func TestApplyRejectsInvalidSequences(t *testing.T) {
	g := hypergraph.New(2)
	g.AddEdge(1, 0, 1)

	cases := []struct {
		name string
		ops  []Op
	}{
		{"delete node still in edge", []Op{{Kind: OpNodeDelete, Node: 0}}},
		{"delete non-empty edge", []Op{{Kind: OpEdgeDelete, Edge: 0}}},
		{"delete absent node", []Op{{Kind: OpNodeDelete, Node: 5}}},
		{"relabel absent node", []Op{{Kind: OpNodeRelabel, Node: 5, Label: 2}}},
		{"reduce by non-member", []Op{{Kind: OpEdgeReduce, Edge: 0, Node: 5}}},
		{"extend with duplicate", []Op{{Kind: OpEdgeExtend, Edge: 0, Node: 1}}},
		{"extend absent edge", []Op{{Kind: OpEdgeExtend, Edge: 7, Node: 0}}},
		{"insert existing node", []Op{{Kind: OpNodeInsert, Node: 0, Label: 1}}},
		{"insert existing edge", []Op{{Kind: OpEdgeInsert, Edge: 0, Label: 1}}},
		{"relabel absent edge", []Op{{Kind: OpEdgeRelabel, Edge: 9, Label: 1}}},
		{"reduce absent edge", []Op{{Kind: OpEdgeReduce, Edge: 9, Node: 0}}},
		{"extend with absent node", []Op{
			{Kind: OpEdgeReduce, Edge: 0, Node: 1},
			{Kind: OpEdgeReduce, Edge: 0, Node: 0},
			{Kind: OpNodeDelete, Node: 1},
			{Kind: OpEdgeExtend, Edge: 0, Node: 1},
		}},
	}
	for _, c := range cases {
		p := &Path{Ops: c.ops}
		if _, err := p.Apply(g); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

func TestApplyInsertions(t *testing.T) {
	g := hypergraph.New(0)
	p := &Path{Ops: []Op{
		{Kind: OpNodeInsert, Node: 0, Label: 1},
		{Kind: OpNodeInsert, Node: 1, Label: 2},
		{Kind: OpEdgeInsert, Edge: 0, Label: 5},
		{Kind: OpEdgeExtend, Edge: 0, Node: 0},
		{Kind: OpEdgeExtend, Edge: 0, Node: 1},
	}}
	got, err := p.Apply(g)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	want := hypergraph.NewLabeled([]hypergraph.Label{1, 2})
	want.AddEdge(5, 0, 1)
	if !hypergraph.Isomorphic(got, want) {
		t.Fatalf("built %v, want %v", got, want)
	}
}

func TestExplainRendersEveryOp(t *testing.T) {
	g, h := egoPair()
	_, path := DistanceWithPath(g, h)
	lines := Explain(path, nil)
	if len(lines) != path.Cost() {
		t.Fatalf("explanation lines %d != ops %d", len(lines), path.Cost())
	}
	s := ExplainString(path, nil)
	if !strings.Contains(s, "(1)") || !strings.Contains(s, "(6)") {
		t.Fatalf("numbered narrative malformed:\n%s", s)
	}
}

func TestExplainWithNamer(t *testing.T) {
	p := &Path{Ops: []Op{
		{Kind: OpEdgeRelabel, Edge: 0, Label: hypergraph.LabelGrey},
		{Kind: OpNodeDelete, Node: 4},
	}}
	namer := &Namer{
		Node: func(slot int) string { return "Alice" },
		Edge: func(slot int) string { return "reading club" },
		Label: func(l hypergraph.Label) string {
			if l == hypergraph.LabelGrey {
				return "grey"
			}
			return "?"
		},
	}
	lines := Explain(p, namer)
	if lines[0] != "group reading club changes its interest to grey" {
		t.Fatalf("line 0 = %q", lines[0])
	}
	if lines[1] != "Alice leaves the network" {
		t.Fatalf("line 1 = %q", lines[1])
	}
}

// TestEgoNamer pins the names the /distance handler and Predictor.Explain
// give an ego network's slots: host ids for its nodes, slots otherwise.
func TestEgoNamer(t *testing.T) {
	g := hypergraph.New(4)
	g.AddEdge(1, 1, 2)
	g.AddEdge(1, 2, 3)
	eu := g.Ego(3) // nodes 2 and 3, hyperedge {2,3}
	n := EgoNamer(eu)
	for _, c := range []struct{ got, want string }{
		{n.Node(0), "node 2"},
		{n.Node(1), "node 3"},
		{n.Node(2), "new node #2"},
		{n.Edge(0), "hyperedge #0"},
		{n.Edge(1), "new hyperedge #1"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestExplainNilPath(t *testing.T) {
	if Explain(nil, nil) != nil {
		t.Fatal("nil path should yield nil explanation")
	}
	if ExplainString(nil, nil) != "" {
		t.Fatal("nil path should yield empty narrative")
	}
}
