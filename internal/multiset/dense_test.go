package multiset

import (
	"math/rand"
	"sort"
	"testing"

	"hged/internal/hypergraph"
)

// The map-based multiset below, with Psi, PsiSorted and CardinalityBound,
// is the tests' independent reference for the dense path.

// Counts is a multiset of labels represented as label → multiplicity.
type Counts map[hypergraph.Label]int

// FromLabels builds a multiset from a label slice.
func FromLabels(labels []hypergraph.Label) Counts {
	c := make(Counts, len(labels))
	for _, l := range labels {
		c[l]++
	}
	return c
}

// Size returns the total multiplicity.
func (c Counts) Size() int {
	n := 0
	for _, k := range c {
		n += k
	}
	return n
}

// Add increments the multiplicity of l.
func (c Counts) Add(l hypergraph.Label) { c[l]++ }

// Remove decrements the multiplicity of l, deleting the entry at zero.
// Removing an absent label is a no-op.
func (c Counts) Remove(l hypergraph.Label) {
	if k, ok := c[l]; ok {
		if k <= 1 {
			delete(c, l)
		} else {
			c[l] = k - 1
		}
	}
}

// Clone returns a copy of the multiset.
func (c Counts) Clone() Counts {
	d := make(Counts, len(c))
	for l, k := range c {
		d[l] = k
	}
	return d
}

// IntersectionSize returns |S1 ∩ S2| as multisets: the sum over labels of the
// minimum multiplicity.
func IntersectionSize(a, b Counts) int {
	// Iterate the smaller map.
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for l, ka := range a {
		if kb, ok := b[l]; ok {
			if ka < kb {
				n += ka
			} else {
				n += kb
			}
		}
	}
	return n
}

// Psi implements Ψ(S1, S2) = max(|S1|, |S2|) − |S1 ∩ S2| (Definition 5).
// It is the minimum number of relabel-plus-insert/delete operations needed to
// turn one label multiset into the other, and therefore a lower bound on the
// label-editing cost of any entity mapping.
func Psi(a, b Counts) int {
	sa, sb := a.Size(), b.Size()
	m := sa
	if sb > m {
		m = sb
	}
	return m - IntersectionSize(a, b)
}

// Size returns the total multiplicity.
func (s Sorted) Size() int {
	n := 0
	for _, k := range s.Counts {
		n += int(k)
	}
	return n
}

// PsiSorted is Psi over the dense representation: max(|S1|, |S2|) − |S1 ∩ S2|.
// Callers that already know the multiset sizes (the filter stage keeps them
// in its signature table) should use PsiSortedSized to skip the size walks.
func PsiSorted(a, b Sorted) int {
	return PsiSortedSized(a, b, a.Size(), b.Size())
}

// CardinalityBound implements the hyperedge-based lower bound of
// Definition 6: with both cardinality lists padded by zeros to equal length
// and sorted, the L1 distance Σ| |E_i| − |E'_i| | is the minimum total
// extend/reduce cost over all pairings of hyperedges (matching sorted
// sequences minimizes the L1 matching cost), hence a valid lower bound on
// the incidence-editing cost of any mapping.
func CardinalityBound(a, b []int) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	as := make([]int, n) // zero-padded
	bs := make([]int, n)
	copy(as, a)
	copy(bs, b)
	sort.Ints(as)
	sort.Ints(bs)
	total := 0
	for i := 0; i < n; i++ {
		d := as[i] - bs[i]
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total
}

// sortedFromLabels builds the dense multiset of a label slice by sorting a
// copy. The tests use it to build Sorted inputs from plain label slices.
func sortedFromLabels(labels []hypergraph.Label) Sorted {
	if len(labels) == 0 {
		return Sorted{}
	}
	ls := make([]hypergraph.Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	// The unique labels are compacted into ls's own backing array: the
	// write position never passes the read position, so no extra slice.
	s := Sorted{Labels: ls[:0], Counts: make([]int32, 0, 8)}
	for i := 0; i < len(ls); {
		j := i + 1
		for j < len(ls) && ls[j] == ls[i] {
			j++
		}
		s.Labels = append(s.Labels, ls[i])
		s.Counts = append(s.Counts, int32(j-i))
		i = j
	}
	return s
}

// randLabels draws a label slice with many collisions so multiplicities > 1
// are common.
func randLabels(rng *rand.Rand, n int) []hypergraph.Label {
	ls := make([]hypergraph.Label, n)
	for i := range ls {
		ls[i] = hypergraph.Label(rng.Intn(6))
	}
	return ls
}

// TestSortedAgainstCounts cross-checks the dense sorted-slice path against
// the map-based reference on random multisets: sizes, intersections, and Ψ
// must coincide exactly.
func TestSortedAgainstCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		a := randLabels(rng, rng.Intn(20))
		b := randLabels(rng, rng.Intn(20))
		ca, cb := FromLabels(a), FromLabels(b)
		sa, sb := sortedFromLabels(a), sortedFromLabels(b)

		if sa.Size() != ca.Size() {
			t.Fatalf("trial %d: Sorted.Size = %d, Counts.Size = %d", trial, sa.Size(), ca.Size())
		}
		if got, want := IntersectionSizeSorted(sa, sb), IntersectionSize(ca, cb); got != want {
			t.Fatalf("trial %d: IntersectionSizeSorted(%v,%v) = %d, map path = %d", trial, a, b, got, want)
		}
		if got, want := PsiSorted(sa, sb), Psi(ca, cb); got != want {
			t.Fatalf("trial %d: PsiSorted(%v,%v) = %d, map path = %d", trial, a, b, got, want)
		}
		if got, want := PsiSortedSized(sa, sb, len(a), len(b)), Psi(ca, cb); got != want {
			t.Fatalf("trial %d: PsiSortedSized = %d, map path = %d", trial, got, want)
		}
	}
}

// TestSortedShape asserts the representation invariants: ascending unique
// labels with positive parallel counts.
func TestSortedShape(t *testing.T) {
	s := sortedFromLabels([]hypergraph.Label{5, 1, 5, 3, 1, 1})
	wantLabels := []hypergraph.Label{1, 3, 5}
	wantCounts := []int32{3, 1, 2}
	if len(s.Labels) != len(wantLabels) || len(s.Counts) != len(wantCounts) {
		t.Fatalf("got %v/%v, want %v/%v", s.Labels, s.Counts, wantLabels, wantCounts)
	}
	for i := range wantLabels {
		if s.Labels[i] != wantLabels[i] || s.Counts[i] != wantCounts[i] {
			t.Fatalf("got %v/%v, want %v/%v", s.Labels, s.Counts, wantLabels, wantCounts)
		}
	}
	empty := sortedFromLabels(nil)
	if len(empty.Labels) != 0 || empty.Size() != 0 {
		t.Fatalf("empty multiset is %v, size %d", empty.Labels, empty.Size())
	}
}

// TestCardinalityBoundSorted cross-checks the allocation-free sorted walk
// against the padding-and-sorting reference.
func TestCardinalityBoundSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		a := make([]int, rng.Intn(12))
		b := make([]int, rng.Intn(12))
		for i := range a {
			a[i] = rng.Intn(8)
		}
		for i := range b {
			b[i] = rng.Intn(8)
		}
		want := CardinalityBound(a, b)

		as := make([]int32, len(a))
		bs := make([]int32, len(b))
		for i, v := range a {
			as[i] = int32(v)
		}
		for i, v := range b {
			bs[i] = int32(v)
		}
		sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		if got := CardinalityBoundSorted(as, bs); got != want {
			t.Fatalf("trial %d: CardinalityBoundSorted(%v,%v) = %d, reference = %d", trial, as, bs, got, want)
		}
		if got := CardinalityBoundSorted(bs, as); got != want {
			t.Fatalf("trial %d: CardinalityBoundSorted is not symmetric: %d vs %d", trial, got, want)
		}
	}
}
