package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hged/internal/hypergraph"
)

// inducedHost builds a random host for the induced-compile tests: labels
// drawn from a pool wider than any set (so host and subgraph dictionaries
// differ), a few hub nodes on most hyperedges, and hyperedges of up to 12
// members, larger than every tested set.
func inducedHost(rng *rand.Rand) *hypergraph.Hypergraph {
	n := 20 + rng.Intn(21)
	g := hypergraph.New(0)
	for i := 0; i < n; i++ {
		g.AddNode(hypergraph.Label(1 + rng.Intn(9)))
	}
	hubs := []hypergraph.NodeID{hypergraph.NodeID(rng.Intn(n)), hypergraph.NodeID(rng.Intn(n))}
	for e := n + n/2; e > 0; e-- {
		var nodes []hypergraph.NodeID
		if rng.Intn(2) == 0 {
			nodes = append(nodes, hubs[rng.Intn(len(hubs))])
		}
		size := 1 + rng.Intn(3)
		if rng.Intn(8) == 0 {
			size = 9 + rng.Intn(4)
		}
		for len(nodes) < size {
			nodes = append(nodes, hypergraph.NodeID(rng.Intn(n)))
		}
		g.AddEdge(hypergraph.Label(1+rng.Intn(9)), nodes...)
	}
	return g
}

// inducedSet draws an ascending node set of up to max members from a
// random node's neighborhood, so most sets hold hyperedges; now and then
// a random node joins, or the set is empty.
func inducedSet(rng *rand.Rand, g *hypergraph.Hypergraph, max int) []hypergraph.NodeID {
	if rng.Intn(20) == 0 {
		return []hypergraph.NodeID{}
	}
	nbrs := g.Neighbors(hypergraph.NodeID(rng.Intn(g.NumNodes())))
	rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
	set := slices.Clone(nbrs[:min(len(nbrs), 1+rng.Intn(max))])
	if rng.Intn(4) == 0 {
		set = append(set, hypergraph.NodeID(rng.Intn(g.NumNodes())))
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// compiledDiff reports the first field in which two compilations differ,
// or "". Label ids are not compared: they index different dictionaries.
func compiledDiff(got, want *graphData) string {
	switch {
	case got.n != want.n || got.m != want.m || got.bitWords != want.bitWords:
		return "sizes"
	case !slices.Equal(got.nodeLabels, want.nodeLabels):
		return "node labels"
	case !slices.Equal(got.edgeLabels, want.edgeLabels):
		return "hyperedge labels"
	case !slices.Equal(got.cards, want.cards):
		return "cardinalities"
	case !slices.Equal(got.degrees, want.degrees):
		return "degrees"
	case !slices.Equal(got.memberBits[:got.m*got.bitWords], want.memberBits[:want.m*want.bitWords]):
		return "membership bits"
	}
	for e := 0; e < got.m; e++ {
		if !slices.Equal(got.edgeNodes[e], want.edgeNodes[e]) {
			return "hyperedge members or order"
		}
	}
	return ""
}

// TestInducedCompileMatchesSubgraph is the differential contract of
// WithinInduced: compiling a node set straight from the host's CSR gives,
// field for field, the compilation of host.InducedSubgraph(set), dense
// label ids of the pair included, and WithinInduced returns the Result of
// Within on the two subgraphs at every tested τ and expansion cap.
// Compilations reuse one warm pair, as the pooled solver does.
func TestInducedCompileMatchesSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var got, want pair
	solved, withEdges, oversized := 0, 0, 0
	for trial := 0; trial < 600; trial++ {
		if trial%30 == 0 && trial > 0 {
			// Whole-graph compilations in between must leave no trace.
			g := inducedHost(rng)
			got.init(g, g, UnitCosts())
		}
		host := inducedHost(rng)
		c := host.Freeze()
		a, b := inducedSet(rng, host, 5), inducedSet(rng, host, 5)
		ga, gb := host.InducedSubgraph(a), host.InducedSubgraph(b)

		if ga.NumEdges() > 1 && gb.NumEdges() > 1 {
			withEdges++
		}
		for _, v := range a {
			for _, e := range c.IncidentEdges(v) {
				if c.Arity(e) > len(a) {
					oversized++
				}
			}
		}

		got.compile(c, nonNil(a), c, nonNil(b), UnitCosts())
		want.init(ga, gb, UnitCosts())
		for side, d := range [][2]*graphData{{got.src, want.src}, {got.tgt, want.tgt}} {
			if diff := compiledDiff(d[0], d[1]); diff != "" {
				t.Fatalf("trial %d, side %d: set %v compiles with different %s", trial, side, [][]hypergraph.NodeID{a, b}[side], diff)
			}
		}
		if !slices.Equal(got.srcNodeLab, want.srcNodeLab) || !slices.Equal(got.tgtNodeLab, want.tgtNodeLab) ||
			!slices.Equal(got.srcEdgeLab, want.srcEdgeLab) || !slices.Equal(got.tgtEdgeLab, want.tgtEdgeLab) ||
			got.numNodeLab != want.numNodeLab || got.numEdgeLab != want.numEdgeLab {
			t.Fatalf("trial %d: sets %v and %v get different dense label ids", trial, a, b)
		}

		if trial%3 != 0 {
			continue
		}
		for _, tau := range []int{0, 2, 5, unbounded} {
			for _, cap := range []int64{2, 0} {
				opts := Options{MaxExpansions: cap}
				res, ok := WithinInduced(host, a, b, tau, opts)
				wantRes, wantOK := Within(ga, gb, tau, opts)
				if ok != wantOK || !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("trial %d, τ %d, cap %d: sets %v and %v: WithinInduced = %+v (%v), Within on the subgraphs = %+v (%v)",
						trial, tau, cap, a, b, res, ok, wantRes, wantOK)
				}
				solved++
			}
		}
	}
	// The draws must reach what the contract is about: sets holding
	// hyperedges, and host hyperedges too large for the set.
	if solved == 0 || withEdges < 50 || oversized == 0 {
		t.Fatalf("%d solves compared, %d pairs of sets held hyperedges, %d oversized hyperedges met", solved, withEdges, oversized)
	}
}

// TestWithinInducedRejectsUnsortedSets pins the precondition: a set that
// does not strictly ascend panics instead of compiling a wrong graph.
func TestWithinInducedRejectsUnsortedSets(t *testing.T) {
	host := hypergraph.Fig1()
	for _, set := range [][]hypergraph.NodeID{{2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithinInduced accepted set %v", set)
				}
			}()
			WithinInduced(host, set, []hypergraph.NodeID{0}, 1, Options{})
		}()
	}
}
