package hypergraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// requireCSRIdentical asserts that two frozen views are equal array by
// array — the differential contract for incremental mutation: a graph
// mutated in place must freeze to the same bytes as one rebuilt from
// scratch over the final state.
func requireCSRIdentical(t *testing.T, got, want *CSR) {
	t.Helper()
	if !reflect.DeepEqual(got.nodeOff, want.nodeOff) {
		t.Fatalf("nodeOff diverged:\n got %v\nwant %v", got.nodeOff, want.nodeOff)
	}
	if !reflect.DeepEqual(got.nodeEdges, want.nodeEdges) {
		t.Fatalf("nodeEdges diverged:\n got %v\nwant %v", got.nodeEdges, want.nodeEdges)
	}
	if !reflect.DeepEqual(got.edgeOff, want.edgeOff) {
		t.Fatalf("edgeOff diverged:\n got %v\nwant %v", got.edgeOff, want.edgeOff)
	}
	if !reflect.DeepEqual(got.edgeNodes, want.edgeNodes) {
		t.Fatalf("edgeNodes diverged:\n got %v\nwant %v", got.edgeNodes, want.edgeNodes)
	}
	if !reflect.DeepEqual(got.nodeLab, want.nodeLab) {
		t.Fatalf("nodeLab diverged:\n got %v\nwant %v", got.nodeLab, want.nodeLab)
	}
	if !reflect.DeepEqual(got.edgeLab, want.edgeLab) {
		t.Fatalf("edgeLab diverged:\n got %v\nwant %v", got.edgeLab, want.edgeLab)
	}
	if !reflect.DeepEqual(got.labels, want.labels) {
		t.Fatalf("label dictionary diverged:\n got %v\nwant %v", got.labels, want.labels)
	}
	if !reflect.DeepEqual(got.labelID, want.labelID) {
		t.Fatalf("labelID diverged:\n got %v\nwant %v", got.labelID, want.labelID)
	}
}

func TestRemoveEdgeBasic(t *testing.T) {
	g := Fig1()
	m := g.NumEdges()
	removed := g.Edge(1)
	g.RemoveEdge(1)
	if g.NumEdges() != m-1 {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), m-1)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The same graph built from scratch without edge 1 freezes identically.
	want := New(0)
	ref := Fig1()
	for v := 0; v < ref.NumNodes(); v++ {
		want.AddNode(ref.NodeLabel(NodeID(v)))
	}
	for e := 0; e < ref.NumEdges(); e++ {
		if e == 1 {
			continue
		}
		want.AddEdge(ref.Edge(EdgeID(e)).Label, ref.Edge(EdgeID(e)).Nodes...)
	}
	requireCSRIdentical(t, g.Freeze(), want.Freeze())
	// Members of the removed edge no longer list it.
	for _, v := range removed.Nodes {
		for _, e := range g.IncidentEdges(v) {
			if !g.Edge(e).Contains(v) {
				t.Fatalf("node %d incident to edge %d which does not contain it", v, e)
			}
		}
	}
}

func TestRemoveEdgePanicsOutOfRange(t *testing.T) {
	g := Fig1()
	for _, e := range []EdgeID{EdgeID(g.NumEdges()), -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RemoveEdge(%d) did not panic", e)
				}
			}()
			g.RemoveEdge(e)
		}()
	}
}

func TestRemoveNodeBasic(t *testing.T) {
	g := New(0)
	a := g.AddNode(1)
	b := g.AddNode(2)
	c := g.AddNode(3)
	d := g.AddNode(4)
	g.AddEdge(10, a, b)
	g.AddEdge(11, b, c, d)
	g.AddEdge(12, a)

	g.RemoveNode(b)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Labels shifted: ids are now a=0(1), c=1(3), d=2(4).
	for i, want := range []Label{1, 3, 4} {
		if got := g.NodeLabel(NodeID(i)); got != want {
			t.Fatalf("node %d label = %d, want %d", i, got, want)
		}
	}
	// Edge 0 lost b and keeps a; edge 1 keeps shifted c,d.
	if got := g.Edge(0).Nodes; !reflect.DeepEqual(got, []NodeID{0}) {
		t.Fatalf("edge 0 nodes = %v, want [0]", got)
	}
	if got := g.Edge(1).Nodes; !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Fatalf("edge 1 nodes = %v, want [1 2]", got)
	}
}

func TestRemoveNodeLeavesEmptyHyperedge(t *testing.T) {
	g := New(0)
	a := g.AddNode(1)
	g.AddNode(2)
	g.AddEdge(10, a)
	g.RemoveNode(a)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (cardinality-0 hyperedges are legal)", g.NumEdges())
	}
	if got := g.Edge(0).Arity(); got != 0 {
		t.Fatalf("edge arity = %d, want 0", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNodePanicsOutOfRange(t *testing.T) {
	g := Fig1()
	for _, v := range []NodeID{NodeID(g.NumNodes()), -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RemoveNode(%d) did not panic", v)
				}
			}()
			g.RemoveNode(v)
		}()
	}
}

// TestRemoveDoesNotCorruptSharedCSR is the aliasing regression test for
// copy-on-write removal: clones share their member and incidence lists and
// the CSR, and removal in one must never write through them.
func TestRemoveDoesNotCorruptSharedCSR(t *testing.T) {
	base := Fig1()
	frozen := base.Freeze()
	sibling := base.Clone() // shares frozen
	mut := base.Clone()     // shares frozen too; we mutate this one
	wantNodes := append([]NodeID(nil), sibling.Edge(2).Nodes...)
	wantInc := append([]EdgeID(nil), sibling.IncidentEdges(wantNodes[0])...)

	mut.RemoveEdge(0)
	mut.RemoveNode(1)
	if err := mut.Validate(); err != nil {
		t.Fatal(err)
	}
	// The shared CSR and the untouched clone are unchanged.
	if got := frozen.Members(2); !reflect.DeepEqual([]NodeID(got), wantNodes) {
		t.Fatalf("shared CSR edge 2 members corrupted: %v, want %v", got, wantNodes)
	}
	if got := sibling.IncidentEdges(wantNodes[0]); !reflect.DeepEqual([]EdgeID(got), wantInc) {
		t.Fatalf("sibling incidence corrupted: %v, want %v", got, wantInc)
	}
	if err := sibling.Validate(); err != nil {
		t.Fatalf("sibling corrupted by clone removal: %v", err)
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base corrupted by clone removal: %v", err)
	}
}

// mutationOp is one step of a removal-inclusive random script, replayable
// onto any graph.
type mutationOp struct {
	kind  int // 0 add node, 1 add edge, 2 remove edge, 3 remove node, 4 relabel node, 5 relabel edge
	label Label
	nodes []NodeID
	node  NodeID
	edge  EdgeID
}

func randomOps(rng *rand.Rand, steps int) []mutationOp {
	n, m := 2, 0 // mirror of node/edge counts as the script executes
	ops := make([]mutationOp, 0, steps)
	for i := 0; i < steps; i++ {
		k := rng.Intn(10)
		switch {
		case k < 3 || n < 3: // add node
			ops = append(ops, mutationOp{kind: 0, label: Label(1 + rng.Intn(4))})
			n++
		case k < 6 || m == 0: // add edge
			sz := 1 + rng.Intn(3)
			nodes := make([]NodeID, sz)
			for j := range nodes {
				nodes[j] = NodeID(rng.Intn(n))
			}
			ops = append(ops, mutationOp{kind: 1, label: Label(10 + rng.Intn(3)), nodes: nodes})
			m++
		case k < 8: // remove edge
			ops = append(ops, mutationOp{kind: 2, edge: EdgeID(rng.Intn(m))})
			m--
		case k == 8: // remove node
			ops = append(ops, mutationOp{kind: 3, node: NodeID(rng.Intn(n))})
			n--
		default: // relabel
			if rng.Intn(2) == 0 || m == 0 {
				ops = append(ops, mutationOp{kind: 4, node: NodeID(rng.Intn(n)), label: Label(1 + rng.Intn(4))})
			} else {
				ops = append(ops, mutationOp{kind: 5, edge: EdgeID(rng.Intn(m)), label: Label(10 + rng.Intn(3))})
			}
		}
	}
	return ops
}

func applyOp(g *Hypergraph, op mutationOp) {
	switch op.kind {
	case 0:
		g.AddNode(op.label)
	case 1:
		g.AddEdge(op.label, op.nodes...)
	case 2:
		g.RemoveEdge(op.edge)
	case 3:
		g.RemoveNode(op.node)
	case 4:
		g.SetNodeLabel(op.node, op.label)
	case 5:
		g.SetEdgeLabel(op.edge, op.label)
	}
}

// TestMutationDifferentialWithRemovals drives one graph through random
// scripts with a Freeze after every step (maximal invalidate/refreeze
// churn) and a twin through the
// same script with no intermediate freezes; the final frozen views must be
// byte-identical.
func TestMutationDifferentialWithRemovals(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		churn, plain := New(2), New(2)
		for _, op := range randomOps(rng, 80) {
			applyOp(churn, op)
			churn.Freeze()
			applyOp(plain, op)
			if err := churn.Validate(); err != nil {
				t.Fatalf("seed %d: churn graph invalid after %+v: %v", seed, op, err)
			}
		}
		if err := plain.Validate(); err != nil {
			t.Fatalf("seed %d: plain graph invalid: %v", seed, err)
		}
		requireCSRIdentical(t, churn.Freeze(), plain.Freeze())
	}
}
