package core

import (
	"sort"

	"hged/internal/assign"
	"hged/internal/hypergraph"
	"hged/internal/multiset"
)

// LowerBound returns the paper's Strategy-3 lower bound on HGED(g, h): the
// label-based bound Ψ(l(V), l(V')) + Ψ(l(E), l(E')) (Definition 5) plus the
// hyperedge-based cardinality bound (Definition 6). The two components
// charge disjoint cost families (labels+insertions vs. incidences), so their
// sum is admissible.
func LowerBound(g, h *hypergraph.Hypergraph) int {
	return lowerBoundDataModel(compile(g), compile(h), UnitCosts())
}

// lowerBoundDataModel is the Strategy-3 bound under a cost model: of the Ψ
// entities needing attention, the size difference must be inserted/deleted
// and the remainder costs at least the cheaper of relabel and
// insert/delete; incidence edits cost the cardinality bound times the
// incidence weight.
func lowerBoundDataModel(s, t *graphData, w CostModel) int {
	lb := weightedPsi(multiset.PsiLabels(s.nodeLabels, t.nodeLabels), s.n-t.n, w.Node, w.minNodeMismatch())
	lb += weightedPsi(multiset.PsiLabels(s.edgeLabels, t.edgeLabels), s.m-t.m, w.Edge, w.minEdgeMismatch())
	lb += multiset.CardinalityBound(s.cards, t.cards) * w.Incidence
	return lb
}

// rootLowerBound is lowerBoundDataModel on the pair's own compiled data,
// computed over the dense pair-union label ids with retained scratch so a
// warm solver derives the root bound without allocating: Ψ is a counting
// pass over the interned ids, and the cardinality bound sorts retained
// copies of the cards lists and L1-walks them top-aligned (identical to
// zero-padding the front of the shorter ascending list).
func (p *pair) rootLowerBound() int {
	lb := weightedPsi(p.psiDense(p.srcNodeLab, p.tgtNodeLab, p.numNodeLab),
		p.src.n-p.tgt.n, p.w.Node, p.w.minNodeMismatch())
	lb += weightedPsi(p.psiDense(p.srcEdgeLab, p.tgtEdgeLab, p.numEdgeLab),
		p.src.m-p.tgt.m, p.w.Edge, p.w.minEdgeMismatch())
	lb += p.cardBound() * p.w.Incidence
	return lb
}

// psiDense computes Ψ(a, b) = max(|a|, |b|) − |a ∩ b| for label multisets
// given as dense pair-dictionary ids in [0, numLab).
func (p *pair) psiDense(a, b []int, numLab int) int {
	cnt := growInt32s(p.psiCnt, numLab)
	p.psiCnt = cnt
	for i := range cnt {
		cnt[i] = 0
	}
	for _, id := range a {
		cnt[id]++
	}
	inter := 0
	for _, id := range b {
		if cnt[id] > 0 {
			cnt[id]--
			inter++
		}
	}
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	return m - inter
}

// cardBound is multiset.CardinalityBound(src.cards, tgt.cards) on retained
// sorted scratch copies.
func (p *pair) cardBound() int {
	a := growInts(p.cardScratchA, len(p.src.cards))
	b := growInts(p.cardScratchB, len(p.tgt.cards))
	p.cardScratchA, p.cardScratchB = a, b
	copy(a, p.src.cards)
	copy(b, p.tgt.cards)
	sort.Ints(a)
	sort.Ints(b)
	return sortedL1(a, b)
}

// weightedPsi prices a Ψ value: diff entities at the insert/delete weight,
// the remainder at the cheaper of relabel and insert/delete.
func weightedPsi(psi, diff, insDel, mismatch int) int {
	if diff < 0 {
		diff = -diff
	}
	if diff > psi {
		diff = psi // defensive; Ψ ≥ |size difference| always
	}
	return diff*insDel + (psi-diff)*mismatch
}

// AssignmentLowerBound returns a (usually tighter) admissible lower bound on
// the hyperedge part computed by solving an assignment problem whose pair
// costs are themselves lower bounds — labelMismatch(E,E') + ||E|−|E'|| —
// plus the node-label Ψ bound. It dominates LowerBound (an optimal
// assignment of the summed pair costs is at least the sum of the optima of
// each component) at O(M³) cost, and is used for one-shot threshold
// filtering rather than per-search-state.
func AssignmentLowerBound(g, h *hypergraph.Hypergraph) int {
	s, t := compile(g), compile(h)
	lb := multiset.PsiLabels(s.nodeLabels, t.nodeLabels)
	M := maxInt(s.m, t.m)
	if M == 0 {
		return lb
	}
	cost := make([][]int64, M)
	for e := 0; e < M; e++ {
		cost[e] = make([]int64, M)
		for f := 0; f < M; f++ {
			switch {
			case e < s.m && f < t.m:
				c := s.cards[e] - t.cards[f]
				if c < 0 {
					c = -c
				}
				if s.edgeLabels[e] != t.edgeLabels[f] {
					c++
				}
				cost[e][f] = int64(c)
			case e < s.m:
				cost[e][f] = int64(1 + s.cards[e])
			case f < t.m:
				cost[e][f] = int64(1 + t.cards[f])
			}
		}
	}
	_, total := assign.Solve(cost)
	return lb + int(total)
}

// sortedL1 computes the zero-padded L1 distance of two ascending-sorted
// integer lists, aligning them at the top (largest with largest), which is
// the minimum L1 matching cost.
func sortedL1(a, b []int) int {
	la, lb := len(a), len(b)
	n := la
	if lb > n {
		n = lb
	}
	total := 0
	for i := 1; i <= n; i++ {
		var x, y int
		if la-i >= 0 {
			x = a[la-i]
		}
		if lb-i >= 0 {
			y = b[lb-i]
		}
		d := x - y
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total
}
