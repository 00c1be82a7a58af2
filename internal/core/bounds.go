package core

import (
	"sort"

	"hged/internal/hypergraph"
)

// LowerBound returns the paper's Strategy-3 lower bound on HGED(g, h): the
// label-based bound Ψ(l(V), l(V')) + Ψ(l(E), l(E')) (Definition 5) plus the
// hyperedge-based cardinality bound (Definition 6). The two components
// charge disjoint cost families (labels+insertions vs. incidences), so their
// sum is admissible.
func LowerBound(g, h *hypergraph.Hypergraph) int {
	return newPair(g, h).rootLowerBound()
}

// rootLowerBound is the Strategy-3 bound on the pair under its cost model:
// of the Ψ entities needing attention, the size difference must be
// inserted/deleted and the remainder costs at least the cheaper of relabel
// and insert/delete; incidence edits cost the cardinality bound times the
// incidence weight. It runs over the dense pair-union label ids with
// retained scratch, so a warm solver derives the root bound without
// allocating: Ψ is a counting pass over the interned ids, and the
// cardinality bound sorts retained copies of the cards lists and L1-walks
// them top-aligned (identical to zero-padding the front of the shorter
// ascending list).
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

// cardBound is Definition 6's hyperedge-based bound on src.cards and
// tgt.cards, the L1 walk of multiset.CardinalityBoundSorted, on retained
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
