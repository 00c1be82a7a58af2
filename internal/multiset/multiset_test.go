package multiset

import (
	"testing"
	"testing/quick"

	"hged/internal/hypergraph"
)

func lbl(xs ...int) []hypergraph.Label {
	out := make([]hypergraph.Label, len(xs))
	for i, x := range xs {
		out[i] = hypergraph.Label(x)
	}
	return out
}

// psiOf is Psi over two label slices.
func psiOf(a, b []hypergraph.Label) int { return Psi(FromLabels(a), FromLabels(b)) }

func TestPsiPaperExample(t *testing.T) {
	// Paper, after Definition 5: nodes {A,A,B,C} vs {A,B,B,C} → 4−3 = 1,
	// hyperedges {a,a,b} vs {b,b,c} → 3−1 = 2, total 3.
	nodes := psiOf(lbl(1, 1, 2, 3), lbl(1, 2, 2, 3))
	if nodes != 1 {
		t.Fatalf("node Ψ = %d, want 1", nodes)
	}
	edges := psiOf(lbl(10, 10, 11), lbl(11, 11, 12))
	if edges != 2 {
		t.Fatalf("edge Ψ = %d, want 2", edges)
	}
	if nodes+edges != 3 {
		t.Fatalf("total = %d, want 3", nodes+edges)
	}
}

func TestPsiIdentical(t *testing.T) {
	if got := psiOf(lbl(1, 2, 3), lbl(3, 2, 1)); got != 0 {
		t.Fatalf("Ψ of equal multisets = %d, want 0", got)
	}
}

func TestPsiDisjoint(t *testing.T) {
	if got := psiOf(lbl(1, 1), lbl(2, 2, 2)); got != 3 {
		t.Fatalf("Ψ = %d, want 3", got)
	}
}

func TestPsiEmpty(t *testing.T) {
	if got := psiOf(nil, lbl(5, 5)); got != 2 {
		t.Fatalf("Ψ(∅, {5,5}) = %d, want 2", got)
	}
	if got := psiOf(nil, nil); got != 0 {
		t.Fatalf("Ψ(∅, ∅) = %d, want 0", got)
	}
}

func TestCountsAddRemove(t *testing.T) {
	c := FromLabels(lbl(1, 1, 2))
	if c.Size() != 3 {
		t.Fatalf("size = %d", c.Size())
	}
	c.Remove(1)
	if c[1] != 1 {
		t.Fatalf("count(1) = %d, want 1", c[1])
	}
	c.Remove(1)
	if _, ok := c[1]; ok {
		t.Fatal("label 1 should be deleted at zero multiplicity")
	}
	c.Remove(99) // absent: no-op
	c.Add(7)
	if c.Size() != 2 {
		t.Fatalf("size = %d, want 2", c.Size())
	}
}

func TestCloneIndependence(t *testing.T) {
	c := FromLabels(lbl(1, 2))
	d := c.Clone()
	d.Add(3)
	if _, ok := c[3]; ok {
		t.Fatal("clone shares storage")
	}
}

func TestCardinalityBoundPaperExample(t *testing.T) {
	// Paper, after Definition 6: {4,2,5,3} vs {6,4,4,3} → 3.
	if got := CardinalityBound([]int{4, 2, 5, 3}, []int{6, 4, 4, 3}); got != 3 {
		t.Fatalf("cardinality bound = %d, want 3", got)
	}
}

func TestCardinalityBoundPadding(t *testing.T) {
	// {3,3,4} vs {3,4} → padded {0,3,3,4} wait lists differ in length:
	// sorted a = [3 3 4], sorted b padded = [0 3 4] → |3-0|+|3-3|+|4-4| = 3.
	if got := CardinalityBound([]int{3, 3, 4}, []int{3, 4}); got != 3 {
		t.Fatalf("bound = %d, want 3", got)
	}
	if got := CardinalityBound(nil, []int{2, 2}); got != 4 {
		t.Fatalf("bound vs empty = %d, want 4", got)
	}
}

func TestPsiSymmetricProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		la := make([]hypergraph.Label, len(a))
		lb := make([]hypergraph.Label, len(b))
		for i, x := range a {
			la[i] = hypergraph.Label(x % 8)
		}
		for i, x := range b {
			lb[i] = hypergraph.Label(x % 8)
		}
		return psiOf(la, lb) == psiOf(lb, la)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPsiTriangleLikeProperties(t *testing.T) {
	// Ψ is bounded below by the size difference and above by max size.
	f := func(a, b []uint8) bool {
		la := make([]hypergraph.Label, len(a))
		lb := make([]hypergraph.Label, len(b))
		for i, x := range a {
			la[i] = hypergraph.Label(x % 5)
		}
		for i, x := range b {
			lb[i] = hypergraph.Label(x % 5)
		}
		psi := psiOf(la, lb)
		diff := len(a) - len(b)
		if diff < 0 {
			diff = -diff
		}
		maxSz := len(a)
		if len(b) > maxSz {
			maxSz = len(b)
		}
		return psi >= diff && psi <= maxSz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCardinalityBoundProperties(t *testing.T) {
	// Symmetric; zero iff equal multisets; ≥ |Σa − Σb|.
	f := func(a, b []uint8) bool {
		ia := make([]int, len(a))
		ib := make([]int, len(b))
		sa, sb := 0, 0
		for i, x := range a {
			ia[i] = int(x % 10)
			sa += ia[i]
		}
		for i, x := range b {
			ib[i] = int(x % 10)
			sb += ib[i]
		}
		bound := CardinalityBound(ia, ib)
		if bound != CardinalityBound(ib, ia) {
			return false
		}
		d := sa - sb
		if d < 0 {
			d = -d
		}
		return bound >= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
