package core

import (
	"cmp"
	"slices"
)

// rerankNodes fills order (length paddedN) with the order in which source
// node slots are assigned during search, implementing Strategy 1's
// intuitions: (i) higher-degree nodes first, (ii) nodes with equal labels
// grouped together, (iii) nodes before hyperedges (enforced by the caller:
// all node levels precede edge levels), (iv) higher-cardinality hyperedges
// first (see rerankEdges). Real slots come first; null (padding) slots last.
// When disabled, natural order is used.
func rerankNodes(order []int, d *graphData, disable bool) {
	for i := range order {
		order[i] = i
	}
	if disable || d.n == 0 {
		return
	}
	// Group score per label: the maximum degree among nodes of that label,
	// so whole label groups are ordered by their strongest member.
	score := d.groupScores(d.nodeLabIDs, d.degrees)
	lab := d.nodeLabIDs
	slices.SortStableFunc(order[:d.n], func(va, vb int) int {
		if c := cmp.Compare(score[lab[vb]], score[lab[va]]); c != 0 {
			return c
		}
		if c := cmp.Compare(d.nodeLabels[va], d.nodeLabels[vb]); c != 0 {
			return c
		}
		if c := cmp.Compare(d.degrees[vb], d.degrees[va]); c != 0 {
			return c
		}
		return cmp.Compare(va, vb)
	})
	d.clearGroupScores(lab)
}

// rerankEdges fills order (length paddedM) with the source hyperedge slot
// order: label groups ordered by their largest cardinality,
// higher-cardinality edges first inside each group. Null slots last.
func rerankEdges(order []int, d *graphData, disable bool) {
	for i := range order {
		order[i] = i
	}
	if disable || d.m == 0 {
		return
	}
	score := d.groupScores(d.edgeLabIDs, d.cards)
	lab := d.edgeLabIDs
	slices.SortStableFunc(order[:d.m], func(ea, eb int) int {
		if c := cmp.Compare(score[lab[eb]], score[lab[ea]]); c != 0 {
			return c
		}
		if c := cmp.Compare(d.edgeLabels[ea], d.edgeLabels[eb]); c != 0 {
			return c
		}
		if c := cmp.Compare(d.cards[eb], d.cards[ea]); c != 0 {
			return c
		}
		return cmp.Compare(ea, eb)
	})
	d.clearGroupScores(lab)
}

// groupScores returns d.groupScore holding, per label id of lab, the
// largest of the entities' sizes (degree or cardinality) carrying it.
func (d *graphData) groupScores(lab []int32, size []int) []int {
	for len(d.groupScore) < len(d.dict) {
		d.groupScore = append(d.groupScore, 0)
	}
	for i, l := range lab {
		d.groupScore[l] = max(d.groupScore[l], size[i])
	}
	return d.groupScore
}

// clearGroupScores restores groupScore to all zeros after groupScores.
func (d *graphData) clearGroupScores(lab []int32) {
	for _, l := range lab {
		d.groupScore[l] = 0
	}
}
