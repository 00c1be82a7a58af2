package multiset

import (
	"testing"

	"hged/internal/hypergraph"
)

func TestIntersectionSizeTable(t *testing.T) {
	cases := []struct {
		name string
		a, b []hypergraph.Label
		want int
	}{
		{"both empty", nil, nil, 0},
		{"one empty", lbl(1, 2), nil, 0},
		{"disjoint", lbl(1, 1), lbl(2, 3), 0},
		{"identical", lbl(1, 2, 2), lbl(2, 1, 2), 3},
		{"multiplicity clamps to min", lbl(1, 1, 1), lbl(1), 1},
		{"partial overlap", lbl(1, 1, 2, 3), lbl(1, 2, 2, 4), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := FromLabels(tc.a), FromLabels(tc.b)
			if got := IntersectionSize(a, b); got != tc.want {
				t.Errorf("IntersectionSize(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
			// Symmetric by definition; the implementation iterates the
			// smaller map, so exercise both argument orders explicitly.
			if got := IntersectionSize(b, a); got != tc.want {
				t.Errorf("IntersectionSize(%v, %v) = %d, want %d", tc.b, tc.a, got, tc.want)
			}
		})
	}
}

func TestFromLabelsTable(t *testing.T) {
	cases := []struct {
		name   string
		labels []hypergraph.Label
		want   map[hypergraph.Label]int
	}{
		{"empty", nil, map[hypergraph.Label]int{}},
		{"singleton", lbl(4), map[hypergraph.Label]int{4: 1}},
		{"repeats", lbl(2, 2, 2, 9), map[hypergraph.Label]int{2: 3, 9: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := FromLabels(tc.labels)
			if len(c) != len(tc.want) {
				t.Fatalf("got %d distinct labels, want %d", len(c), len(tc.want))
			}
			for l, k := range tc.want {
				if c[l] != k {
					t.Errorf("count(%d) = %d, want %d", l, c[l], k)
				}
			}
			if c.Size() != len(tc.labels) {
				t.Errorf("Size() = %d, want %d", c.Size(), len(tc.labels))
			}
		})
	}
}

func TestPsiTable(t *testing.T) {
	cases := []struct {
		name string
		a, b []hypergraph.Label
		want int
	}{
		{"both empty", nil, nil, 0},
		{"insertions only", nil, lbl(1, 2, 3), 3},
		{"relabels only", lbl(1, 1), lbl(2, 2), 2},
		{"equal sets", lbl(7, 8), lbl(8, 7), 0},
		{"mixed", lbl(1, 1, 2), lbl(1, 3, 3, 3), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := psiOf(tc.a, tc.b); got != tc.want {
				t.Errorf("Psi(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestCardinalityBoundTable(t *testing.T) {
	cases := []struct {
		name string
		a, b []int
		want int
	}{
		{"both empty", nil, nil, 0},
		{"vs empty", []int{3, 1}, nil, 4},
		{"identical", []int{2, 4, 4}, []int{4, 2, 4}, 0},
		{"unsorted input", []int{5, 1}, []int{2, 4}, 2},
		{"length mismatch pads zeros", []int{2}, []int{2, 2, 2}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CardinalityBound(tc.a, tc.b); got != tc.want {
				t.Errorf("CardinalityBound(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestRemoveTable(t *testing.T) {
	cases := []struct {
		name     string
		start    []hypergraph.Label
		remove   []hypergraph.Label
		wantSize int
	}{
		{"remove to empty", lbl(1), lbl(1), 0},
		{"remove one of two", lbl(1, 1), lbl(1), 1},
		{"remove absent is noop", lbl(1), lbl(9, 9), 1},
		{"interleaved", lbl(1, 2, 2), lbl(2, 1, 2), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := FromLabels(tc.start)
			for _, l := range tc.remove {
				c.Remove(l)
			}
			if c.Size() != tc.wantSize {
				t.Errorf("size after removals = %d, want %d", c.Size(), tc.wantSize)
			}
			for l, k := range c {
				if k <= 0 {
					t.Errorf("label %d kept nonpositive multiplicity %d", l, k)
				}
			}
		})
	}
}
