package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// refInduced is the straightforward construction InducedSubgraph must
// match: a remap map and one AddEdge per fully contained hyperedge, in
// ascending host id order.
func refInduced(h *Hypergraph, s []NodeID) *Hypergraph {
	seen := make(map[NodeID]bool)
	var sorted []NodeID
	for _, v := range s {
		if !seen[v] {
			seen[v] = true
			sorted = append(sorted, v)
		}
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	remap := make(map[NodeID]NodeID, len(sorted))
	labels := make([]Label, len(sorted))
	for i, v := range sorted {
		remap[v] = NodeID(i)
		labels[i] = h.NodeLabel(v)
	}
	sub := NewLabeled(labels)
	sub.origIDs = make([]NodeID, len(sorted))
	for i, v := range sorted {
		sub.origIDs[i] = h.OrigID(v)
	}
edges:
	for e := 0; e < h.NumEdges(); e++ {
		edge := h.Edge(EdgeID(e))
		if len(edge.Nodes) == 0 {
			continue // touches no node of S
		}
		var mapped []NodeID
		for _, u := range edge.Nodes {
			nu, ok := remap[u]
			if !ok {
				continue edges
			}
			mapped = append(mapped, nu)
		}
		sub.AddEdge(edge.Label, mapped...)
	}
	return sub
}

// compareInduced checks got against want through every accessor, plus the
// original-id map.
func compareInduced(t *testing.T, ctx string, got, want *Hypergraph) {
	t.Helper()
	compareGraphs(t, ctx, got, want)
	for v := 0; v < got.NumNodes(); v++ {
		if g, w := got.OrigID(NodeID(v)), want.OrigID(NodeID(v)); g != w {
			t.Fatalf("%s: OrigID(%d) = %d, want %d", ctx, v, g, w)
		}
	}
}

// randomHost is a random graph larger than genGraph's, so that induced
// sets drop some hyperedges and keep others.
func randomHost(rng *rand.Rand) *Hypergraph {
	n := 1 + rng.Intn(30)
	g := New(0)
	for i := 0; i < n; i++ {
		g.AddNode(Label(1 + rng.Intn(3)))
	}
	m := rng.Intn(3 * n)
	for e := 0; e < m; e++ {
		k := rng.Intn(5) // cardinality 0 included
		nodes := make([]NodeID, k)
		for j := range nodes {
			nodes[j] = NodeID(rng.Intn(n))
		}
		g.AddEdge(Label(10+rng.Intn(3)), nodes...)
	}
	return g
}

func randomSubset(rng *rand.Rand, n int) []NodeID {
	k := rng.Intn(n + 2)
	s := make([]NodeID, k)
	for i := range s {
		s[i] = NodeID(rng.Intn(n)) // duplicates and any order
	}
	return s
}

// TestInducedSubgraphMatchesReference compares the direct builder with the
// AddEdge-built reference on random hosts, on FromFrozen twins of them,
// on nested inductions and on egos.
func TestInducedSubgraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		h := randomHost(rng)
		hosts := []*Hypergraph{h, frozenTwin(t, h)}
		s := randomSubset(rng, h.NumNodes())
		for hi, host := range hosts {
			ctx := fmt.Sprintf("iter %d host %d S=%v", iter, hi, s)
			sub := host.InducedSubgraph(s)
			compareInduced(t, ctx, sub, refInduced(host, s))

			// Nested: induce again inside the result.
			if sub.NumNodes() > 0 {
				s2 := randomSubset(rng, sub.NumNodes())
				compareInduced(t, ctx+fmt.Sprintf(" nested S2=%v", s2),
					sub.InducedSubgraph(s2), refInduced(sub, s2))
			}
			if h.NumNodes() > 0 {
				v := NodeID(rng.Intn(h.NumNodes()))
				compareInduced(t, ctx+fmt.Sprintf(" ego %d", v),
					host.Ego(v), refInduced(host, host.Neighbors(v)))
			}
		}
	}
}

// TestInducedSubgraphMutationIsolation mutates induced results through the
// whole mutation API and checks, after every step, that the result still
// equals the identically mutated reference (no write went through into a
// sibling's arena range) and that the host is untouched.
func TestInducedSubgraphMutationIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		h := randomHost(rng)
		if iter%2 == 1 {
			h = frozenTwin(t, h)
		}
		before := h.String()
		s := randomSubset(rng, h.NumNodes())
		sub, ref := h.InducedSubgraph(s), refInduced(h, s)
		sibling := h.InducedSubgraph(s) // an untouched result of the same call
		for step := 0; step < 30; step++ {
			n, m := sub.NumNodes(), sub.NumEdges()
			var op func(*Hypergraph)
			if n == 0 {
				break
			}
			// AddNode is left out: it does not extend the original-id map.
			switch k := rng.Intn(6); {
			case k <= 2:
				nodes := make([]NodeID, 1+rng.Intn(3))
				for j := range nodes {
					nodes[j] = NodeID(rng.Intn(n))
				}
				l := Label(10 + rng.Intn(3))
				op = func(g *Hypergraph) { g.AddEdge(l, nodes...) }
			case k == 3 && m > 0:
				e := EdgeID(rng.Intn(m))
				op = func(g *Hypergraph) { g.RemoveEdge(e) }
			case k == 4:
				v := NodeID(rng.Intn(n))
				op = func(g *Hypergraph) { g.RemoveNode(v) }
			case m > 0:
				e, l := EdgeID(rng.Intn(m)), Label(10+rng.Intn(3))
				op = func(g *Hypergraph) { g.SetEdgeLabel(e, l) }
			default:
				continue
			}
			op(sub)
			op(ref)
			ctx := fmt.Sprintf("iter %d step %d", iter, step)
			compareInduced(t, ctx, sub, ref)
			if got := h.String(); got != before {
				t.Fatalf("%s: host changed:\n%s\nwant\n%s", ctx, got, before)
			}
		}
		compareInduced(t, fmt.Sprintf("iter %d sibling", iter), sibling, refInduced(h, s))
	}
}
