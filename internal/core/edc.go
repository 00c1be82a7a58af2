package core

import (
	"math"
	"sort"

	"hged/internal/assign"
	"hged/internal/hypergraph"
)

// EDCInaccurate computes the edit-cost *instance* of procedure EDC-INAC
// (Algorithm 1, lines 17–31) for a complete padded node mapping: node
// mapping costs plus, per hyperedge, either an exact-set match (label
// comparison only) or a full delete/insert charge. As Observation 4.1
// notes, this is an upper bound on the exact edit cost of the mapping, not
// the minimum: unmatched hyperedges are wholly deleted and re-inserted
// rather than incrementally extended/reduced.
//
// One refinement over the paper's pseudocode: exact-set matches are
// consumed with multiplicity (two source hyperedges cannot both claim the
// same target hyperedge), which keeps the result a sound upper bound when
// duplicate hyperedges are present.
func EDCInaccurate(g, h *hypergraph.Hypergraph, nodeMap []int) int {
	return newPair(g, h).edcInaccurate(nodeMap)
}

// edgeSetIndex groups a graph's hyperedges by their member set. Sets are
// keyed by a 64-bit hash of the sorted member IDs; hash collisions are
// resolved at lookup time by comparing the actual member lists, so two
// distinct sets never merge (and duplicate hyperedges share one group with
// multiplicity, as the string-keyed index did).
type edgeSetIndex struct {
	buckets map[uint64][]int32
}

// build indexes the target graph's hyperedges, reusing retained map storage.
func (ix *edgeSetIndex) build(d *graphData) {
	if ix.buckets == nil {
		ix.buckets = make(map[uint64][]int32, d.m)
	} else {
		clear(ix.buckets)
	}
	for f := 0; f < d.m; f++ {
		k := hashIntSet(d.edgeNodes[f])
		ix.buckets[k] = append(ix.buckets[k], int32(f))
	}
}

// lookup returns the first unmatched hyperedge of d whose member set equals
// the sorted list nodes, or -1. matched flags consumed hyperedges.
func (ix *edgeSetIndex) lookup(d *graphData, nodes []int, matched []bool) int {
	for _, cand := range ix.buckets[hashIntSet(nodes)] {
		if !matched[cand] && intSlicesEqual(d.edgeNodes[cand], nodes) {
			return int(cand)
		}
	}
	return -1
}

// hashIntSet hashes a sorted member list with FNV-1a, folding in the length
// so prefixes hash differently.
func hashIntSet(nodes []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range nodes {
		h ^= uint64(uint32(v))
		h *= prime64
	}
	h ^= uint64(len(nodes))
	h *= prime64
	return h
}

func intSlicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// tgtEdgeIndex returns the memoized target-edge member-set index, building
// it on first use. HGED-HEU evaluates EDC-INAC for every complete node
// mapping visited, so building the index once per pair (instead of once per
// evaluation) removes the dominant cost of the procedure.
func (p *pair) tgtEdgeIndex() *edgeSetIndex {
	if !p.tgtIndexBuilt {
		p.tgtIndex.build(p.tgt)
		p.tgtIndexBuilt = true
	}
	return &p.tgtIndex
}

func (p *pair) edcInaccurate(nodeMap []int) int {
	cost := 0
	for i, j := range nodeMap {
		cost += p.nodeCost(i, j)
	}

	index := p.tgtEdgeIndex()
	p.edcMatched = growBools(p.edcMatched, p.tgt.m)
	matchedTgt := p.edcMatched
	for i := range matchedTgt {
		matchedTgt[i] = false
	}

	mapped := p.edcMapped[:0]
	for e := 0; e < p.src.m; e++ {
		mapped = mapped[:0]
		valid := true
		for _, u := range p.src.edgeNodes[e] {
			j := nodeMap[u]
			if j >= p.tgt.n {
				valid = false // member deleted: mapped set is no hyperedge
				break
			}
			mapped = append(mapped, j)
		}
		f := -1
		if valid {
			sort.Ints(mapped)
			f = index.lookup(p.tgt, mapped, matchedTgt)
		}
		if f < 0 {
			// Whole hyperedge charged: one reduction per member plus the
			// deletion charge.
			cost += p.src.cards[e]*p.w.Incidence + p.w.Edge
			continue
		}
		matchedTgt[f] = true
		if p.src.edgeLabels[e] != p.tgt.edgeLabels[f] {
			cost += p.w.EdgeRelabel
		}
	}
	p.edcMapped = mapped[:0]
	// Target hyperedges never claimed are charged as insertions.
	for f := 0; f < p.tgt.m; f++ {
		if !matchedTgt[f] {
			cost += p.tgt.cards[f]*p.w.Incidence + p.w.Edge
		}
	}
	return cost
}

// EDCPermutation computes the exact minimum edit cost of transforming g into
// h under the complete padded node mapping, by enumerating hyperedge
// permutations with branch-and-bound pruning — the bipartite-graph-based
// computation of Algorithm 2, run uncapped.
func EDCPermutation(g, h *hypergraph.Hypergraph, nodeMap []int) int {
	p := newPair(g, h)
	_, edgeMap, _, _ := p.edgePermutation(nodeMap, unbounded, 0, math.MaxInt64, Options{})
	return p.totalCost(nodeMap, edgeMap)
}

// EDCAssignment computes the same exact minimum edit cost as EDCPermutation
// but solves the hyperedge pairing as an O(M³) assignment problem: the cost
// of pairing hyperedge slot e with slot f under a fixed node mapping is
// independent of all other pairs, so the Hungarian optimum is the optimal
// hyperedge mapping.
func EDCAssignment(g, h *hypergraph.Hypergraph, nodeMap []int) int {
	p := newPair(g, h)
	return p.totalCost(nodeMap, p.edgeAssignment(nodeMap))
}

// edgeAssignment returns the optimal hyperedge mapping (source slot → target
// slot) under nodeMap, via the Hungarian solver.
func (p *pair) edgeAssignment(nodeMap []int) []int {
	M := p.paddedM
	if M == 0 {
		return nil
	}
	cost := make([][]int64, M)
	for e := 0; e < M; e++ {
		cost[e] = make([]int64, M)
		for f := 0; f < M; f++ {
			cost[e][f] = int64(p.edgeCost(e, f, nodeMap))
		}
	}
	rowToCol, _ := assign.Solve(cost)
	return rowToCol
}
