// Package multiset provides the label-multiset and cardinality-sequence
// utilities behind the HGED lower bounds of the paper (Definitions 5 and 6).
package multiset

import (
	"sort"

	"hged/internal/hypergraph"
)

// Sorted is the dense multiset representation behind the batched filter
// stage: parallel slices of unique labels (ascending) and their
// multiplicities. It is allocation-stable — a Sorted can view a sub-range
// of a shared arena — and intersection is a branch-predictable merge walk
// instead of map probing. The zero value is the empty multiset.
type Sorted struct {
	Labels []hypergraph.Label // ascending, unique
	Counts []int32            // parallel to Labels, all > 0
}

// SortedFromInterned builds the dense multiset of an interned-label-id
// slice (ids index into dict, a graph's dense label dictionary — see
// hypergraph.CSR). Multiplicities accumulate in one pass over a dense
// counter array, so only the distinct labels pay for sorting.
func SortedFromInterned(ids []int32, dict []hypergraph.Label) Sorted {
	if len(ids) == 0 {
		return Sorted{}
	}
	cnt := make([]int32, len(dict))
	for _, id := range ids {
		cnt[id]++
	}
	distinct := 0
	for _, k := range cnt {
		if k > 0 {
			distinct++
		}
	}
	s := Sorted{
		Labels: make([]hypergraph.Label, 0, distinct),
		Counts: make([]int32, 0, distinct),
	}
	for id, k := range cnt {
		if k > 0 {
			s.Labels = append(s.Labels, dict[id])
			s.Counts = append(s.Counts, k)
		}
	}
	// The dictionary assigns ids in first-seen order, not label order.
	sort.Sort(pairsByLabel{s.Labels, s.Counts})
	return s
}

// pairsByLabel co-sorts a (labels, counts) pair list by ascending label.
type pairsByLabel struct {
	labels []hypergraph.Label
	counts []int32
}

func (p pairsByLabel) Len() int           { return len(p.labels) }
func (p pairsByLabel) Less(i, j int) bool { return p.labels[i] < p.labels[j] }
func (p pairsByLabel) Swap(i, j int) {
	p.labels[i], p.labels[j] = p.labels[j], p.labels[i]
	p.counts[i], p.counts[j] = p.counts[j], p.counts[i]
}

// IntersectionSizeSorted returns |S1 ∩ S2| as multisets via a merge walk
// over the two sorted label lists.
func IntersectionSizeSorted(a, b Sorted) int {
	n, i, j := 0, 0, 0
	for i < len(a.Labels) && j < len(b.Labels) {
		switch {
		case a.Labels[i] < b.Labels[j]:
			i++
		case a.Labels[i] > b.Labels[j]:
			j++
		default:
			if a.Counts[i] < b.Counts[j] {
				n += int(a.Counts[i])
			} else {
				n += int(b.Counts[j])
			}
			i++
			j++
		}
	}
	return n
}

// PsiSortedSized is Ψ(S1, S2) = max(|S1|, |S2|) − |S1 ∩ S2| (Definition 5)
// over the dense representation, with both total multiplicities supplied
// by the caller (the filter stage keeps them in its signature table). It
// is the minimum number of relabel-plus-insert/delete operations needed to
// turn one label multiset into the other, and therefore a lower bound on
// the label-editing cost of any entity mapping.
func PsiSortedSized(a, b Sorted, sizeA, sizeB int) int {
	m := sizeA
	if sizeB > m {
		m = sizeB
	}
	return m - IntersectionSizeSorted(a, b)
}

// CardinalityBoundSorted implements the hyperedge-based lower bound of
// Definition 6: with both cardinality lists padded by zeros to equal length
// and sorted, the L1 distance Σ| |E_i| − |E'_i| | is the minimum total
// extend/reduce cost over all pairings of hyperedges (matching sorted
// sequences minimizes the L1 matching cost), hence a valid lower bound on
// the incidence-editing cost of any mapping. The lists must already ascend
// (the signature table stores them that way): the zero padding of the
// shorter list conceptually sits at its front, so the L1 walk needs no
// allocation and no sort.
func CardinalityBoundSorted(a, b []int32) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	pad := len(a) - len(b)
	total := 0
	for i, av := range a {
		var bv int32
		if i >= pad {
			bv = b[i-pad]
		}
		d := av - bv
		if d < 0 {
			d = -d
		}
		total += int(d)
	}
	return total
}
