package predict

import (
	"math/rand"
	"testing"

	"hged/internal/gen"
	"hged/internal/hypergraph"
)

// varintKeyOf is the string set key the hashed keys replaced; the property
// tests keep it as the reference semantics.
func varintKeyOf(nodes []hypergraph.NodeID) string {
	b := make([]byte, 0, len(nodes)*4)
	for _, v := range nodes {
		x := uint32(v)
		for x >= 0x80 {
			b = append(b, byte(x)|0x80)
			x >>= 7
		}
		b = append(b, byte(x))
	}
	return string(b)
}

// TestHashedKeysAgreeWithStringKeys checks, over seeded random hypergraphs,
// that nodeSets answers membership exactly as a map keyed by the old
// varint string encoding: same dedup decisions and the same dense ids, no
// false merges, no false splits.
func TestHashedKeysAgreeWithStringKeys(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := gen.Uniform(60, 120, 5, 3, 2, seed)
		rng := rand.New(rand.NewSource(seed))

		var sets [][]hypergraph.NodeID
		for _, e := range g.Edges() {
			sets = append(sets, e.Nodes)
		}
		// Random sorted subsets, plus deliberate duplicates of edge sets.
		for i := 0; i < 200; i++ {
			k := 1 + rng.Intn(6)
			set := map[hypergraph.NodeID]struct{}{}
			for len(set) < k {
				set[hypergraph.NodeID(rng.Intn(g.NumNodes()))] = struct{}{}
			}
			nodes := make([]hypergraph.NodeID, 0, k)
			for v := range set {
				nodes = append(nodes, v)
			}
			for a := 1; a < len(nodes); a++ {
				for b := a; b > 0 && nodes[b] < nodes[b-1]; b-- {
					nodes[b], nodes[b-1] = nodes[b-1], nodes[b]
				}
			}
			sets = append(sets, nodes)
		}
		for i := 0; i < 20; i++ {
			e := g.Edge(hypergraph.EdgeID(rng.Intn(g.NumEdges())))
			sets = append(sets, append([]hypergraph.NodeID(nil), e.Nodes...))
		}

		hashed := newNodeSets(len(sets))
		strings := make(map[string]int32, len(sets))
		for i, s := range sets {
			wantID, strDup := strings[varintKeyOf(s)]
			if !strDup {
				wantID = int32(len(strings))
				strings[varintKeyOf(s)] = wantID
			}
			if id, added := hashed.intern(s); added == strDup || id != wantID {
				t.Fatalf("seed %d set %d (%v): hashed id %d dup=%v, string id %d dup=%v", seed, i, s, id, !added, wantID, strDup)
			}
			if !hashed.contains(s) {
				t.Fatalf("seed %d: inserted set %v not found", seed, s)
			}
		}
	}
}

// TestDuplicateHyperedgesShareOneKey pins the duplicate-hyperedge case: a
// graph may carry several hyperedges over the same node set (different
// labels), and all of them must collapse to one key, while any proper
// sub/superset must not.
func TestDuplicateHyperedgesShareOneKey(t *testing.T) {
	g := hypergraph.New(5)
	g.AddEdge(1, 0, 1, 2)
	g.AddEdge(2, 0, 1, 2) // duplicate node set, different label
	g.AddEdge(1, 0, 1)    // proper subset
	g.AddEdge(1, 0, 1, 2, 3)

	s := newNodeSets(4)
	dups := 0
	for _, e := range g.Edges() {
		if _, added := s.intern(e.Nodes); !added {
			dups++
		}
	}
	if dups != 1 {
		t.Fatalf("want exactly the one duplicate node set detected, got %d", dups)
	}
	if s.contains([]hypergraph.NodeID{1, 2}) {
		t.Fatal("subset {1,2} was never inserted but reported present")
	}
}

// TestHashNodeIDsPrefixAndOrder pins hash properties the set semantics rely
// on: length is folded in (prefixes differ) and input order matters (inputs
// are canonicalized by sorting before hashing, so permutations must go
// through sorting, not through the hash).
func TestHashNodeIDsPrefixAndOrder(t *testing.T) {
	if hashNodeIDs([]hypergraph.NodeID{1, 2}) == hashNodeIDs([]hypergraph.NodeID{1, 2, 0}) {
		t.Fatal("prefix sets should hash differently")
	}
	if hashNodeIDs(nil) == hashNodeIDs([]hypergraph.NodeID{0}) {
		t.Fatal("empty set and {0} should hash differently")
	}
}
