package hypergraph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// frozenTwin rebuilds g with FromFrozen from copies of its CSR arrays, the
// way the binary reader does.
func frozenTwin(t *testing.T, g *Hypergraph) *Hypergraph {
	t.Helper()
	c := g.Freeze()
	tw, err := FromFrozen(
		append([]Label(nil), c.labels...),
		append([]int32(nil), c.nodeLab...),
		append([]int32(nil), c.edgeLab...),
		append([]int32(nil), c.edgeOff...),
		append([]NodeID(nil), c.edgeNodes...),
	)
	if err != nil {
		t.Fatalf("FromFrozen: %v", err)
	}
	return tw
}

// compareGraphs checks that every accessor of a and b agrees, including the
// interned dictionaries their Freeze views expose (the binary writer's
// bytes depend on those being identical).
func compareGraphs(t *testing.T, ctx string, a, b *Hypergraph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: size mismatch (%d,%d) vs (%d,%d)", ctx, a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		id := NodeID(v)
		if a.NodeLabel(id) != b.NodeLabel(id) {
			t.Fatalf("%s: node %d label %d vs %d", ctx, v, a.NodeLabel(id), b.NodeLabel(id))
		}
		if a.Degree(id) != b.Degree(id) {
			t.Fatalf("%s: node %d degree %d vs %d", ctx, v, a.Degree(id), b.Degree(id))
		}
		if fmt.Sprint(a.IncidentEdges(id)) != fmt.Sprint(b.IncidentEdges(id)) {
			t.Fatalf("%s: node %d incidence %v vs %v", ctx, v, a.IncidentEdges(id), b.IncidentEdges(id))
		}
		if fmt.Sprint(a.Neighbors(id)) != fmt.Sprint(b.Neighbors(id)) {
			t.Fatalf("%s: node %d neighbors differ", ctx, v)
		}
	}
	for e := 0; e < a.NumEdges(); e++ {
		ea, eb := a.Edge(EdgeID(e)), b.Edge(EdgeID(e))
		if ea.Label != eb.Label || fmt.Sprint(ea.Nodes) != fmt.Sprint(eb.Nodes) {
			t.Fatalf("%s: edge %d %v@%d vs %v@%d", ctx, e, ea.Nodes, ea.Label, eb.Nodes, eb.Label)
		}
	}
	if a.String() != b.String() {
		t.Fatalf("%s: String %q vs %q", ctx, a, b)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("%s: a invalid: %v", ctx, err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("%s: b invalid: %v", ctx, err)
	}
	ca, cb := a.Freeze(), b.Freeze()
	if fmt.Sprint(ca.labels) != fmt.Sprint(cb.labels) {
		t.Fatalf("%s: dictionaries %v vs %v", ctx, ca.labels, cb.labels)
	}
	if fmt.Sprint(ca.nodeLab) != fmt.Sprint(cb.nodeLab) || fmt.Sprint(ca.edgeLab) != fmt.Sprint(cb.edgeLab) {
		t.Fatalf("%s: interned label ids diverge", ctx)
	}
}

// TestFrozenFirstMatchesMapsBuilt checks that a FromFrozen graph is
// indistinguishable from its maps-built original through every accessor,
// and that reads and Freeze on the twin never build a CSR.
func TestFrozenFirstMatchesMapsBuilt(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		g := genGraph(seed)
		tw := frozenTwin(t, g)
		before := FreezeBuilds()
		compareGraphs(t, fmt.Sprintf("seed %d", seed), g, tw)
		// compareGraphs froze only g-side views that were already memoized;
		// the twin side must not have rebuilt anything.
		if d := FreezeBuilds() - before; d != 0 {
			t.Fatalf("seed %d: %d CSR builds during read-only comparison", seed, d)
		}
	}
}

// TestThawOnMutate applies identical mutation scripts to a maps-built graph
// and its FromFrozen twin: the two must stay convergent after every step,
// so no mutation writes through the decoded arrays the twin's lists and
// CSR share.
func TestThawOnMutate(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := genGraph(seed)
		tw := frozenTwin(t, g)
		rng := rand.New(rand.NewSource(seed ^ 0x7a3))
		for step := 0; step < 12; step++ {
			switch op := rng.Intn(4); op {
			case 0:
				l := Label(1 + rng.Intn(5))
				g.AddNode(l)
				tw.AddNode(l)
			case 1:
				n := g.NumNodes()
				k := rng.Intn(n) + 1
				nodes := make([]NodeID, 0, k)
				for _, v := range rng.Perm(n)[:k] {
					nodes = append(nodes, NodeID(v))
				}
				l := Label(10 + rng.Intn(3))
				g.AddEdge(l, nodes...)
				tw.AddEdge(l, nodes...)
			case 2:
				v := NodeID(rng.Intn(g.NumNodes()))
				l := Label(1 + rng.Intn(5))
				g.SetNodeLabel(v, l)
				tw.SetNodeLabel(v, l)
			case 3:
				if g.NumEdges() > 0 {
					e := EdgeID(rng.Intn(g.NumEdges()))
					l := Label(10 + rng.Intn(3))
					g.SetEdgeLabel(e, l)
					tw.SetEdgeLabel(e, l)
				}
			}
			compareGraphs(t, fmt.Sprintf("seed %d step %d", seed, step), g, tw)
		}
	}
}

// cloneSource builds a small graph through AddEdge whose incidence lists
// for nodes 0 and 1 have spare capacity (three entries, capacity four), so
// a clone that shared them uncapped would let both copies append into the
// same slots.
func cloneSource(t *testing.T) *Hypergraph {
	t.Helper()
	g := NewLabeled([]Label{1, 2, 3, 4})
	g.AddEdge(5, 0, 1)
	g.AddEdge(6, 0, 1, 2)
	g.AddEdge(7, 0, 1, 3)
	g.AddEdge(8, 2, 3)
	if inc := g.IncidentEdges(0); cap(inc) == len(inc) {
		t.Fatal("source incidence list has no spare capacity")
	}
	return g
}

// copyCSR returns a deep copy of c.
func copyCSR(c *CSR) *CSR {
	return &CSR{
		nodeOff: slices.Clone(c.nodeOff), nodeEdges: slices.Clone(c.nodeEdges),
		edgeOff: slices.Clone(c.edgeOff), edgeNodes: slices.Clone(c.edgeNodes),
		nodeLab: slices.Clone(c.nodeLab), edgeLab: slices.Clone(c.edgeLab),
		labels: slices.Clone(c.labels), labelID: maps.Clone(c.labelID),
	}
}

// TestCloneIndependent applies every mutator to a clone and then to its
// source, for a source built through AddEdge and one built by FromFrozen.
// Each mutation must leave the other copy's Freeze view byte-identical,
// and its lists must still rebuild to that view. The two sides use
// different labels and add their two hyperedges in opposite orders, so a
// write into shared storage shows as a changed value.
func TestCloneIndependent(t *testing.T) {
	mutators := []struct {
		name string
		op   func(g *Hypergraph, side Label)
	}{
		{"AddNode", func(g *Hypergraph, side Label) { g.AddNode(60 + side) }},
		{"AddEdge", func(g *Hypergraph, side Label) {
			first, second := NodeID(1-side), NodeID(side)
			g.AddEdge(70+side, first)
			g.AddEdge(70+side, second)
		}},
		{"RemoveEdge", func(g *Hypergraph, side Label) { g.RemoveEdge(EdgeID(1 + side)) }},
		{"RemoveNode", func(g *Hypergraph, side Label) { g.RemoveNode(NodeID(2 + side)) }},
		{"SetNodeLabel", func(g *Hypergraph, side Label) { g.SetNodeLabel(0, 80+side) }},
		{"SetEdgeLabel", func(g *Hypergraph, side Label) { g.SetEdgeLabel(0, 90+side) }},
	}
	sources := []struct {
		name string
		make func() *Hypergraph
	}{
		{"AddEdge", func() *Hypergraph { return cloneSource(t) }},
		{"FromFrozen", func() *Hypergraph { return frozenTwin(t, cloneSource(t)) }},
	}
	// mutate applies op to g and fails unless other is unchanged.
	mutate := func(ctx string, g, other *Hypergraph, op func(*Hypergraph, Label), side Label) {
		t.Helper()
		frozen, lists := copyCSR(other.Freeze()), other.buildCSR()
		op(g, side)
		requireCSRIdentical(t, other.Freeze(), frozen)
		requireCSRIdentical(t, other.buildCSR(), lists)
		if err := other.Validate(); err != nil {
			t.Fatalf("%s: other copy invalid: %v", ctx, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: mutated copy invalid: %v", ctx, err)
		}
	}
	for _, src := range sources {
		for _, m := range mutators {
			g := src.make()
			g.Freeze()
			cl := g.Clone()
			ctx := src.name + " source, " + m.name
			mutate(ctx+" on the clone", cl, g, m.op, 0)
			mutate(ctx+" on the source", g, cl, m.op, 1)
		}
	}
}

// TestFromFrozenNormalizesDictionary feeds FromFrozen a dictionary with
// shuffled, duplicate and unused entries; the result must intern identically
// to a maps-built equivalent, since the binary writer's bytes depend on
// the first-seen canonical order.
func TestFromFrozenNormalizesDictionary(t *testing.T) {
	// Nodes labeled [7, 3, 7], one edge {0,1} labeled 9, via a messy dict:
	// entries [99 (unused), 3, 7, 9, 7 (duplicate)].
	dict := []Label{99, 3, 7, 9, 7}
	tw, err := FromFrozen(dict, []int32{4, 1, 2}, []int32{3}, []int32{0, 2}, []NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	g := NewLabeled([]Label{7, 3, 7})
	g.AddEdge(9, 0, 1)
	compareGraphs(t, "normalized dict", g, tw)
	if got := tw.Freeze().Labels(); fmt.Sprint(got) != fmt.Sprint([]Label{7, 3, 9}) {
		t.Fatalf("dictionary not normalized to first-seen order: %v", got)
	}
}

// TestFromFrozenRejects checks reject-before-construct on malformed arrays.
func TestFromFrozenRejects(t *testing.T) {
	cases := []struct {
		name    string
		labels  []Label
		nodeLab []int32
		edgeLab []int32
		edgeOff []int32
		members []NodeID
	}{
		{"offset count", []Label{1}, []int32{0, 0}, []int32{0}, []int32{0}, nil},
		{"offset span", []Label{1}, []int32{0, 0}, []int32{0}, []int32{0, 3}, []NodeID{0, 1}},
		{"offsets decrease", []Label{1}, []int32{0, 0}, []int32{0, 0}, []int32{0, 2, 1}, []NodeID{0, 1}[:1]},
		{"member out of range", []Label{1}, []int32{0, 0}, []int32{0}, []int32{0, 1}, []NodeID{2}},
		{"members descending", []Label{1}, []int32{0, 0}, []int32{0}, []int32{0, 2}, []NodeID{1, 0}},
		{"members duplicate", []Label{1}, []int32{0, 0}, []int32{0}, []int32{0, 2}, []NodeID{1, 1}},
		{"node label id", []Label{1}, []int32{0, 1}, []int32{0}, []int32{0, 0}, nil},
		{"edge label id", []Label{1}, []int32{0, 0}, []int32{-1}, []int32{0, 0}, nil},
	}
	for _, tc := range cases {
		if _, err := FromFrozen(tc.labels, tc.nodeLab, tc.edgeLab, tc.edgeOff, tc.members); err == nil {
			t.Errorf("%s: accepted malformed input", tc.name)
		}
	}
}
