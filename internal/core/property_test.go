package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hged/internal/hypergraph"
)

// quickGraphs derives a pair of small random hypergraphs from a seed.
func quickGraphs(seed int64) (*hypergraph.Hypergraph, *hypergraph.Hypergraph) {
	rng := rand.New(rand.NewSource(seed))
	return randomHypergraph(rng, 4, 3, 3), randomHypergraph(rng, 4, 3, 3)
}

func TestQuickSolverAgreement(t *testing.T) {
	f := func(seed int64) bool {
		a, b := quickGraphs(seed)
		bfs := BFS(a, b, Options{}).Distance
		return bfs == DFS(a, b, Options{}).Distance &&
			HEU(a, b, Options{}).Distance >= bfs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistanceZeroIffIsomorphic(t *testing.T) {
	f := func(seed int64) bool {
		a, b := quickGraphs(seed)
		return (Distance(a, b) == 0) == hypergraph.Isomorphic(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPathRealizesDistance(t *testing.T) {
	f := func(seed int64) bool {
		a, b := quickGraphs(seed)
		res := BFS(a, b, Options{})
		if res.Path == nil || res.Path.Cost() != res.Distance {
			return false
		}
		got, err := res.Path.Apply(a)
		if err != nil {
			return false
		}
		return hypergraph.Isomorphic(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBoundsBracket(t *testing.T) {
	f := func(seed int64) bool {
		a, b := quickGraphs(seed)
		d := Distance(a, b)
		if LowerBound(a, b) > d {
			return false
		}
		p := newPair(a, b)
		ub, _ := p.upperBound(2, seed|1)
		return ub >= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickThresholdConsistency(t *testing.T) {
	// For every τ: the threshold verdict must agree with the unbounded
	// distance.
	f := func(seed int64, tauRaw uint8) bool {
		a, b := quickGraphs(seed)
		d := Distance(a, b)
		tau := int(tauRaw % 12)
		got, ok := DistanceWithin(a, b, tau)
		if d <= tau {
			return ok && got == d
		}
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEDCVariantsAgree(t *testing.T) {
	f := func(seed int64) bool {
		a, b := quickGraphs(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xabc))
		nodeMap := rng.Perm(maxInt(a.NumNodes(), b.NumNodes()))
		perm := EDCPermutation(a, b, nodeMap)
		return perm == EDCAssignment(a, b, nodeMap) &&
			EDCInaccurate(a, b, nodeMap) >= perm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
