package predict

import (
	"math/rand"
	"slices"
	"testing"

	"hged/internal/core"
	"hged/internal/gen"
	"hged/internal/hypergraph"
)

// sameGraph reports the first difference between two hypergraphs in node
// labels, OrigIDs, hyperedges (in order) and incidence lists, or "".
func sameGraph(a, b *hypergraph.Hypergraph) string {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return "sizes differ"
	}
	for v := 0; v < a.NumNodes(); v++ {
		id := hypergraph.NodeID(v)
		if a.NodeLabel(id) != b.NodeLabel(id) || a.OrigID(id) != b.OrigID(id) {
			return "node labels or OrigIDs differ"
		}
		if !slices.Equal(a.IncidentEdges(id), b.IncidentEdges(id)) {
			return "incidence lists differ"
		}
	}
	for e := 0; e < a.NumEdges(); e++ {
		ea, eb := a.Edge(hypergraph.EdgeID(e)), b.Edge(hypergraph.EdgeID(e))
		if ea.Label != eb.Label || !slices.Equal(ea.Nodes, eb.Nodes) {
			return "hyperedges differ"
		}
	}
	return ""
}

// TestContextEgoSetsMatchInduced holds the ego sets read off the host's
// incidence lists to the graphs they stand for: for every member x of a
// sorted candidate C, the host's sub-hypergraph induced on A_x must be
// InducedSubgraph(C).Ego(x), node for node and hyperedge for hyperedge.
// Both walks egoSet chooses between (x's incidence list, or the other
// members' lists) must give that set, and each must be the one chosen for
// some candidate; so must the frontier of C∖{x}, through which admit reads
// the set of a node x joining C∖{x}.
func TestContextEgoSetsMatchInduced(t *testing.T) {
	chosen := [2]int{}
	for seed := int64(1); seed <= 4; seed++ {
		g, _, err := gen.PlantedCommunities(gen.Config{Nodes: 40, Edges: 80, MeanEdgeSize: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h := g.Freeze()
		rng := rand.New(rand.NewSource(seed))
		nontrivial := 0
		for trial := 0; trial < 300; trial++ {
			// Grow C from a random node through host neighbors, so that
			// most candidates hold hyperedges, then add a random node.
			k := 2 + rng.Intn(8)
			c := []hypergraph.NodeID{hypergraph.NodeID(rng.Intn(g.NumNodes()))}
			for len(c) < k {
				nbrs := g.Neighbors(c[rng.Intn(len(c))])
				w := nbrs[rng.Intn(len(nbrs))]
				if rng.Intn(4) == 0 {
					w = hypergraph.NodeID(rng.Intn(g.NumNodes()))
				}
				if !slices.Contains(c, w) {
					c = append(c, w)
				}
			}
			slices.Sort(c)
			sub := g.InducedSubgraph(c)
			for i, x := range c {
				set := egoSet(nil, h, c, x)
				if len(set) > 1 {
					nontrivial++
				}
				if diff := sameGraph(g.InducedSubgraph(set), sub.Ego(hypergraph.NodeID(i))); diff != "" {
					t.Fatalf("seed %d, C = %v, x = %d: A_x = %v: %s", seed, c, x, set, diff)
				}
				// admit's view: x joining S = C∖{x}, its ties read off
				// the frontier of S.
				var f frontier
				f.build(h, slices.Delete(slices.Clone(c), i, i+1))
				fromTies := []hypergraph.NodeID{x}
				for _, tie := range f.ties(x) {
					fromTies = append(fromTies, h.Members(tie.e)...)
				}
				slices.Sort(fromTies)
				if fromTies = slices.Compact(fromTies); !slices.Equal(fromTies, set) {
					t.Fatalf("seed %d, C = %v, x = %d: the frontier of C∖{x} ties x to %v, want %v", seed, c, x, fromTies, set)
				}
				for via, viaOthers := range []bool{false, true} {
					if got := egoSetVia(nil, h, c, x, viaOthers); !slices.Equal(got, set) {
						t.Fatalf("seed %d, C = %v, x = %d: walk via others %v gives %v, want %v", seed, c, x, viaOthers, got, set)
					}
					if slices.Equal(egoSet(nil, h, c, x), set) && shorterViaOthers(h, c, x) == viaOthers {
						chosen[via]++
					}
				}
			}
		}
		if nontrivial == 0 {
			t.Fatalf("seed %d: every ego set was a singleton; the test compared nothing", seed)
		}
	}
	if chosen[0] == 0 || chosen[1] == 0 {
		t.Fatalf("egoSet chose x's own list %d times and the others' lists %d times; want both", chosen[0], chosen[1])
	}
}

// shorterViaOthers restates egoSet's choice of walk.
func shorterViaOthers(h *hypergraph.CSR, c []hypergraph.NodeID, x hypergraph.NodeID) bool {
	others := 0
	for _, y := range c {
		if y != x {
			others += h.Degree(y)
		}
	}
	return others < h.Degree(x)
}

// TestSharedEgoPairSolvedOnce pins the ego-pair key: two different
// candidates in which members 0 and 3 have the same ego sets share one σ
// entry, solved once, and its value is HGED-BFS on either candidate's
// induced egos.
func TestSharedEgoPairSolvedOnce(t *testing.T) {
	g := hypergraph.New(0)
	for _, l := range []hypergraph.Label{1, 2, 1, 3, 2, 1, 3} {
		g.AddNode(l)
	}
	g.AddEdge(1, 0, 1, 2)
	g.AddEdge(2, 2, 3)
	g.AddEdge(1, 3, 4)
	g.AddEdge(3, 1, 6) // inside the second candidate only; 0 and 3 are not in it
	p, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50
	contexts := [][]hypergraph.NodeID{{0, 1, 2, 3}, {0, 1, 2, 3, 6}}
	for round, c := range contexts {
		// Both orders of the pair name the same entry.
		var sc egoScratch
		egos := p.contextEgos(&sc, g.Freeze(), c, []hypergraph.NodeID{3, 0})
		if !slices.Equal(egos[1].set, []hypergraph.NodeID{0, 1, 2}) || !slices.Equal(egos[0].set, []hypergraph.NodeID{2, 3}) {
			t.Fatalf("C = %v: ego sets %v and %v, want [0 1 2] and [2 3]", c, egos[1].set, egos[0].set)
		}
		d, ok := p.cache.contextDistance(egos[0], egos[1], budget)
		sub := g.InducedSubgraph(c)
		want := core.BFS(sub.Ego(0), sub.Ego(3), core.Options{})
		if !ok || d != want.Distance || !want.Exact {
			t.Fatalf("C = %v: σ(0,3) = (%d, %v), HGED-BFS on the induced egos = %d (exact %v)", c, d, ok, want.Distance, want.Exact)
		}
		if st := p.Stats(); st.PairsComputed != 1 || st.PairsCached != round {
			t.Fatalf("after C = %v: %d computed, %d cached; want 1 and %d", c, st.PairsComputed, st.PairsCached, round)
		}
	}
}

// TestEgoSetAllocFree pins egoSet's scratch to the stack for candidates of
// up to egoSetStack members, by either walk: with room in dst it
// allocates nothing.
func TestEgoSetAllocFree(t *testing.T) {
	g, _, err := gen.PlantedCommunities(gen.Config{Nodes: 40, Edges: 80, MeanEdgeSize: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Freeze()
	c := g.Neighbors(0)[:min(egoSetStack, g.NumNeighbors(0))]
	dst := make([]hypergraph.NodeID, 0, len(c))
	for _, viaOthers := range []bool{false, true} {
		allocs := testing.AllocsPerRun(20, func() {
			dst = egoSetVia(dst[:0], h, c, c[0], viaOthers)
		})
		if allocs > 0 {
			t.Fatalf("egoSet via others %v allocated %.1f per call, want 0", viaOthers, allocs)
		}
	}
}
