package multiset

import (
	"math/rand"
	"sort"
	"testing"

	"hged/internal/hypergraph"
)

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
