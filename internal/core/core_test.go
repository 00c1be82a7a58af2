package core

import (
	"math"
	"math/rand"
	"testing"

	"hged/internal/hypergraph"
)

// egoPair returns the paper's running pair: (EGO(u4), EGO(u5)) from Fig. 1,
// whose HGED is 6 (Examples 2 and 7).
func egoPair() (*hypergraph.Hypergraph, *hypergraph.Hypergraph) {
	h := hypergraph.Fig1()
	return h.Ego(hypergraph.U(4)), h.Ego(hypergraph.U(5))
}

// randomHypergraph builds a small random labeled hypergraph for property
// tests.
func randomHypergraph(rng *rand.Rand, maxN, maxM, labels int) *hypergraph.Hypergraph {
	n := rng.Intn(maxN + 1)
	g := hypergraph.New(0)
	for i := 0; i < n; i++ {
		g.AddNode(hypergraph.Label(1 + rng.Intn(labels)))
	}
	m := rng.Intn(maxM + 1)
	for e := 0; e < m; e++ {
		var nodes []hypergraph.NodeID
		if n > 0 {
			k := rng.Intn(n + 1)
			perm := rng.Perm(n)
			for _, v := range perm[:k] {
				nodes = append(nodes, hypergraph.NodeID(v))
			}
		}
		g.AddEdge(hypergraph.Label(1+rng.Intn(labels)), nodes...)
	}
	return g
}

func TestPaperExampleDistanceIsSix(t *testing.T) {
	g, h := egoPair()
	if d := BFS(g, h, Options{}).Distance; d != 6 {
		t.Fatalf("BFS HGED(EGO(u4), EGO(u5)) = %d, want 6", d)
	}
	if d := DFS(g, h, Options{}).Distance; d != 6 {
		t.Fatalf("DFS HGED = %d, want 6", d)
	}
	if d := DFSHungarian(g, h, Options{}).Distance; d != 6 {
		t.Fatalf("DFS-Hungarian HGED = %d, want 6", d)
	}
	if d := HEU(g, h, Options{}).Distance; d < 6 {
		t.Fatalf("HEU instance = %d, must be ≥ exact 6", d)
	}
}

func TestPaperExampleSymmetric(t *testing.T) {
	g, h := egoPair()
	if d := BFS(h, g, Options{}).Distance; d != 6 {
		t.Fatalf("HGED(EGO(u5), EGO(u4)) = %d, want 6 (symmetry)", d)
	}
}

func TestPaperExampleLowerBoundTight(t *testing.T) {
	// Example 7 observes that for this pair the Strategy-3 bound is tight:
	// node Ψ = 1, edge Ψ = 2, cardinality bound = 3 → 6.
	g, h := egoPair()
	if lb := LowerBound(g, h); lb != 6 {
		t.Fatalf("lower bound = %d, want 6", lb)
	}
}

func TestPaperExamplePathAppliesToIsomorphic(t *testing.T) {
	g, h := egoPair()
	d, path := DistanceWithPath(g, h)
	if d != 6 {
		t.Fatalf("distance = %d, want 6", d)
	}
	if path.Cost() != 6 {
		t.Fatalf("path cost = %d, want 6", path.Cost())
	}
	edited, err := path.Apply(g)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !hypergraph.Isomorphic(edited, h) {
		t.Fatalf("applying the edit path must yield a graph isomorphic to the target:\n got %v\nwant %v", edited, h)
	}
}

func TestDistanceZeroIffIsomorphic(t *testing.T) {
	g := hypergraph.Fig1()
	if d := Distance(g, g.Clone()); d != 0 {
		t.Fatalf("HGED(g, g) = %d, want 0", d)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		a := randomHypergraph(rng, 5, 3, 3)
		b := randomHypergraph(rng, 5, 3, 3)
		d := Distance(a, b)
		iso := hypergraph.Isomorphic(a, b)
		if (d == 0) != iso {
			t.Fatalf("trial %d: distance %d but isomorphic=%v\na=%v\nb=%v", trial, d, iso, a, b)
		}
	}
}

func TestSolversAgreeOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		a := randomHypergraph(rng, 4, 3, 3)
		b := randomHypergraph(rng, 4, 3, 3)
		bfs := BFS(a, b, Options{}).Distance
		dfs := DFS(a, b, Options{}).Distance
		dfsH := DFSHungarian(a, b, Options{}).Distance
		if bfs != dfs || dfs != dfsH {
			t.Fatalf("trial %d: BFS=%d DFS=%d DFS-H=%d\na=%v\nb=%v", trial, bfs, dfs, dfsH, a, b)
		}
		heu := HEU(a, b, Options{}).Distance
		if heu < bfs {
			t.Fatalf("trial %d: HEU=%d below exact %d", trial, heu, bfs)
		}
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		a := randomHypergraph(rng, 4, 3, 3)
		b := randomHypergraph(rng, 4, 3, 3)
		if d1, d2 := Distance(a, b), Distance(b, a); d1 != d2 {
			t.Fatalf("trial %d: HGED(a,b)=%d != HGED(b,a)=%d\na=%v\nb=%v", trial, d1, d2, a, b)
		}
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		a := randomHypergraph(rng, 4, 2, 2)
		b := randomHypergraph(rng, 4, 2, 2)
		c := randomHypergraph(rng, 4, 2, 2)
		ab, bc, ac := Distance(a, b), Distance(b, c), Distance(a, c)
		if ac > ab+bc {
			t.Fatalf("trial %d: triangle violated: d(a,c)=%d > d(a,b)+d(b,c)=%d+%d\na=%v\nb=%v\nc=%v",
				trial, ac, ab, bc, a, b, c)
		}
	}
}

func TestLowerAndUpperBoundsBracketDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		a := randomHypergraph(rng, 5, 3, 3)
		b := randomHypergraph(rng, 5, 3, 3)
		d := Distance(a, b)
		if lb := LowerBound(a, b); lb > d {
			t.Fatalf("trial %d: lower bound %d > distance %d\na=%v\nb=%v", trial, lb, d, a, b)
		}
		p := newPair(a, b)
		ub, mp := p.upperBound(3, 1)
		if ub < d {
			t.Fatalf("trial %d: upper bound %d < distance %d", trial, ub, d)
		}
		if err := mp.Validate(); err != nil {
			t.Fatalf("trial %d: upper-bound mapping invalid: %v", trial, err)
		}
	}
}

func TestEDCPermutationEqualsAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 80; trial++ {
		a := randomHypergraph(rng, 5, 4, 3)
		b := randomHypergraph(rng, 5, 4, 3)
		N := maxInt(a.NumNodes(), b.NumNodes())
		nodeMap := rng.Perm(N)
		perm := EDCPermutation(a, b, nodeMap)
		hung := EDCAssignment(a, b, nodeMap)
		if perm != hung {
			t.Fatalf("trial %d: EDC permutation %d != assignment %d", trial, perm, hung)
		}
		inac := EDCInaccurate(a, b, nodeMap)
		if inac < perm {
			t.Fatalf("trial %d: EDC-INAC %d below exact %d (must be an upper bound)", trial, inac, perm)
		}
	}
}

func TestEDCExactNeverBelowDistance(t *testing.T) {
	// EDC for *any* node mapping is ≥ HGED; for the optimal one it equals.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		a := randomHypergraph(rng, 4, 3, 2)
		b := randomHypergraph(rng, 4, 3, 2)
		d := Distance(a, b)
		N := maxInt(a.NumNodes(), b.NumNodes())
		edc := EDCAssignment(a, b, rng.Perm(N))
		if edc < d {
			t.Fatalf("trial %d: EDC %d < HGED %d", trial, edc, d)
		}
	}
}

func TestDistanceWithin(t *testing.T) {
	g, h := egoPair()
	if d, ok := DistanceWithin(g, h, 6); !ok || d != 6 {
		t.Fatalf("within 6: d=%d ok=%v, want 6,true", d, ok)
	}
	if d, ok := DistanceWithin(g, h, 10); !ok || d != 6 {
		t.Fatalf("within 10: d=%d ok=%v, want 6,true", d, ok)
	}
	if _, ok := DistanceWithin(g, h, 5); ok {
		t.Fatal("within 5 should fail: distance is 6")
	}
	if _, ok := DistanceWithin(g, h, 0); ok {
		t.Fatal("within 0 should fail: graphs not isomorphic")
	}
	if d, ok := DistanceWithin(g, g.Clone(), 0); !ok || d != 0 {
		t.Fatalf("within 0 on isomorphic copies: d=%d ok=%v", d, ok)
	}
	if _, ok := DistanceWithin(g, h, -1); ok {
		t.Fatal("negative threshold must fail")
	}
	if d, ok := DistanceWithin(g, h, math.MaxInt); !ok || d != 6 {
		t.Fatalf("within MaxInt: d=%d ok=%v, want 6,true", d, ok)
	}
}

func TestThresholdExceededReportsLowerBound(t *testing.T) {
	g, h := egoPair()
	res := BFS(g, h, Options{Threshold: 3})
	if !res.Exceeded {
		t.Fatal("expected exceedance at τ=3 for distance 6")
	}
	if res.Distance != 4 {
		t.Fatalf("reported bound = %d, want τ+1 = 4", res.Distance)
	}
	if !res.Exact {
		t.Fatal("exceedance should be proven exactly")
	}
	if res.Path != nil {
		t.Fatal("no path should accompany an exceeded verdict")
	}
}

func TestThresholdWithinReturnsExact(t *testing.T) {
	g, h := egoPair()
	res := BFS(g, h, Options{Threshold: 7})
	if res.Exceeded || res.Distance != 6 {
		t.Fatalf("τ=7: distance=%d exceeded=%v", res.Distance, res.Exceeded)
	}
}

func TestAblationsPreserveExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	variants := []Options{
		{DisableRerank: true},
		{DisableUpperBound: true},
		{DisableLowerBound: true},
		{DisableRerank: true, DisableUpperBound: true, DisableLowerBound: true},
	}
	for trial := 0; trial < 25; trial++ {
		a := randomHypergraph(rng, 4, 3, 3)
		b := randomHypergraph(rng, 4, 3, 3)
		want := BFS(a, b, Options{}).Distance
		for vi, v := range variants {
			if got := BFS(a, b, v).Distance; got != want {
				t.Fatalf("trial %d variant %d: %d != %d\na=%v\nb=%v", trial, vi, got, want, a, b)
			}
		}
	}
}

func TestStrategiesReduceSearchEffort(t *testing.T) {
	g, h := egoPair()
	full := BFS(g, h, Options{})
	noLB := BFS(g, h, Options{DisableLowerBound: true})
	if full.Expanded > noLB.Expanded {
		t.Fatalf("lower bounds should not increase expansions: with=%d without=%d",
			full.Expanded, noLB.Expanded)
	}
}

func TestExpansionBudgetFallsBackToUpperBound(t *testing.T) {
	g, h := egoPair()
	res := BFS(g, h, Options{MaxExpansions: 2})
	if res.Exact {
		t.Fatal("tiny budget must report Exact=false")
	}
	if res.Distance < 6 {
		t.Fatalf("capped result %d must still be an upper bound of 6", res.Distance)
	}
	if res.Path == nil {
		t.Fatal("capped result should still carry the fallback path")
	}
	if got, err := res.Path.Apply(g); err != nil {
		t.Fatalf("fallback path apply: %v", err)
	} else if !hypergraph.Isomorphic(got, h) {
		t.Fatal("fallback path must still reach the target")
	}
}

func TestPathsApplyOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		a := randomHypergraph(rng, 4, 3, 3)
		b := randomHypergraph(rng, 4, 3, 3)
		res := BFS(a, b, Options{})
		if res.Path == nil {
			t.Fatalf("trial %d: missing path", trial)
		}
		if res.Path.Cost() != res.Distance {
			t.Fatalf("trial %d: path cost %d != distance %d", trial, res.Path.Cost(), res.Distance)
		}
		got, err := res.Path.Apply(a)
		if err != nil {
			t.Fatalf("trial %d: apply: %v\na=%v\nb=%v\nops=%v", trial, err, a, b, res.Path.Ops)
		}
		if !hypergraph.Isomorphic(got, b) {
			t.Fatalf("trial %d: edit path does not reach target\na=%v\nb=%v\ngot=%v", trial, a, b, got)
		}
	}
}

func TestEmptyGraphs(t *testing.T) {
	e := hypergraph.New(0)
	if d := Distance(e, e); d != 0 {
		t.Fatalf("HGED(∅,∅) = %d", d)
	}
	g := hypergraph.New(2)
	g.AddEdge(5, 0, 1)
	// Deleting everything: 2 reductions + 1 edge delete + 2 node deletes.
	if d := Distance(g, e); d != 5 {
		t.Fatalf("HGED(g,∅) = %d, want 5", d)
	}
	if d := Distance(e, g); d != 5 {
		t.Fatalf("HGED(∅,g) = %d, want 5", d)
	}
}

func TestSingleRelabelCases(t *testing.T) {
	a := hypergraph.NewLabeled([]hypergraph.Label{1})
	b := hypergraph.NewLabeled([]hypergraph.Label{2})
	if d := Distance(a, b); d != 1 {
		t.Fatalf("node relabel distance = %d, want 1", d)
	}
	a2 := hypergraph.New(2)
	a2.AddEdge(1, 0, 1)
	b2 := hypergraph.New(2)
	b2.AddEdge(2, 0, 1)
	if d := Distance(a2, b2); d != 1 {
		t.Fatalf("edge relabel distance = %d, want 1", d)
	}
}

func TestExtendReduceCases(t *testing.T) {
	a := hypergraph.New(3)
	a.AddEdge(1, 0, 1)
	b := hypergraph.New(3)
	b.AddEdge(1, 0, 1, 2)
	if d := Distance(a, b); d != 1 {
		t.Fatalf("extend-by-one distance = %d, want 1", d)
	}
	if d := Distance(b, a); d != 1 {
		t.Fatalf("reduce-by-one distance = %d, want 1", d)
	}
}

func TestNodeDistanceProblem1(t *testing.T) {
	g := hypergraph.Fig1()
	res := NodeDistance(g, hypergraph.U(4), hypergraph.U(5), Options{})
	if res.Distance != 6 {
		t.Fatalf("σ(u4,u5) = %d, want 6", res.Distance)
	}
	self := NodeDistance(g, hypergraph.U(4), hypergraph.U(4), Options{})
	if self.Distance != 0 {
		t.Fatalf("σ(u4,u4) = %d, want 0", self.Distance)
	}
}

func TestMappingValidate(t *testing.T) {
	mp := &Mapping{SrcN: 2, TgtN: 2, SrcM: 0, TgtM: 0, NodeMap: []int{0, 0}, EdgeMap: nil}
	if err := mp.Validate(); err == nil {
		t.Fatal("duplicate target must fail validation")
	}
	mp.NodeMap = []int{0, 5}
	if err := mp.Validate(); err == nil {
		t.Fatal("out-of-range target must fail validation")
	}
	mp.NodeMap = []int{1, 0}
	if err := mp.Validate(); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
}

func TestCostPublicAPI(t *testing.T) {
	g, h := egoPair()
	res := BFS(g, h, Options{})
	got, err := Cost(g, h, &res.Path.Mapping)
	if err != nil {
		t.Fatalf("Cost: %v", err)
	}
	if got != res.Distance {
		t.Fatalf("Cost = %d, distance = %d", got, res.Distance)
	}
	// Wrong sizes rejected.
	if _, err := Cost(g, g, &res.Path.Mapping); err == nil {
		t.Fatal("size-mismatched mapping must be rejected")
	}
}
