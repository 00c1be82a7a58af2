package core

import (
	"math/rand"
	"testing"

	"hged/internal/hypergraph"
)

func TestCostModelValidate(t *testing.T) {
	if err := UnitCosts().Validate(); err != nil {
		t.Fatalf("unit model invalid: %v", err)
	}
	bad := []CostModel{
		{},
		{Node: 1, Edge: 1, Incidence: 1, NodeRelabel: 0, EdgeRelabel: 1},
		{Node: 1, Edge: 1, Incidence: 1, NodeRelabel: 3, EdgeRelabel: 1}, // relabel > 2·node
		{Node: 1, Edge: 1, Incidence: 1, NodeRelabel: 1, EdgeRelabel: 5},
		{Node: -1, Edge: 1, Incidence: 1, NodeRelabel: 1, EdgeRelabel: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("model %d should be invalid: %+v", i, m)
		}
	}
}

func TestInvalidCostModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid cost model")
		}
	}()
	bad := CostModel{Node: 1}
	BFS(hypergraph.New(1), hypergraph.New(1), Options{Costs: &bad})
}

func TestUnitCostModelMatchesDefault(t *testing.T) {
	g, h := egoPair()
	unit := UnitCosts()
	d1 := BFS(g, h, Options{}).Distance
	d2 := BFS(g, h, Options{Costs: &unit}).Distance
	if d1 != d2 || d1 != 6 {
		t.Fatalf("unit model diverges: %d vs %d", d1, d2)
	}
}

func TestWeightedDistanceScales(t *testing.T) {
	// Scaling every weight by k scales every mapping's cost, hence the
	// optimum, by k.
	g, h := egoPair()
	scaled := CostModel{Node: 3, Edge: 3, Incidence: 3, NodeRelabel: 3, EdgeRelabel: 3}
	if d := BFS(g, h, Options{Costs: &scaled}).Distance; d != 18 {
		t.Fatalf("3×-scaled distance = %d, want 18", d)
	}
}

func TestWeightedDistanceHandComputed(t *testing.T) {
	// One node relabel vs one node: {1} → {2}.
	a := hypergraph.NewLabeled([]hypergraph.Label{1})
	b := hypergraph.NewLabeled([]hypergraph.Label{2})
	m := CostModel{Node: 5, Edge: 1, Incidence: 1, NodeRelabel: 2, EdgeRelabel: 1}
	if d := BFS(a, b, Options{Costs: &m}).Distance; d != 2 {
		t.Fatalf("relabel-weighted distance = %d, want 2", d)
	}
	// When relabeling is pricier than delete+insert is disallowed; at the
	// boundary (relabel = 2·node) both cost the same.
	m2 := CostModel{Node: 1, Edge: 1, Incidence: 1, NodeRelabel: 2, EdgeRelabel: 1}
	if d := BFS(a, b, Options{Costs: &m2}).Distance; d != 2 {
		t.Fatalf("boundary distance = %d, want 2", d)
	}
}

func TestWeightedIncidence(t *testing.T) {
	// Extending a hyperedge by one node: incidence weight alone.
	a := hypergraph.New(3)
	a.AddEdge(1, 0, 1)
	b := hypergraph.New(3)
	b.AddEdge(1, 0, 1, 2)
	m := CostModel{Node: 1, Edge: 1, Incidence: 7, NodeRelabel: 1, EdgeRelabel: 1}
	if d := BFS(a, b, Options{Costs: &m}).Distance; d != 7 {
		t.Fatalf("incidence-weighted distance = %d, want 7", d)
	}
	// Deleting a whole hyperedge of cardinality 2: edge + 2×incidence.
	c := hypergraph.New(3)
	if d := BFS(a, c, Options{Costs: &m}).Distance; d != 1+2*7 {
		t.Fatalf("edge-deletion distance = %d, want 15", d)
	}
}

func TestWeightedSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	models := []CostModel{
		{Node: 2, Edge: 3, Incidence: 1, NodeRelabel: 2, EdgeRelabel: 4},
		{Node: 5, Edge: 1, Incidence: 2, NodeRelabel: 1, EdgeRelabel: 1},
		{Node: 1, Edge: 1, Incidence: 3, NodeRelabel: 2, EdgeRelabel: 2},
	}
	for trial := 0; trial < 30; trial++ {
		a := randomHypergraph(rng, 4, 3, 3)
		b := randomHypergraph(rng, 4, 3, 3)
		m := models[trial%len(models)]
		opts := Options{Costs: &m}
		bfs := BFS(a, b, opts)
		dfs := DFS(a, b, opts)
		if bfs.Distance != dfs.Distance {
			t.Fatalf("trial %d (%+v): BFS=%d DFS=%d\na=%v\nb=%v",
				trial, m, bfs.Distance, dfs.Distance, a, b)
		}
		if heu := HEU(a, b, opts).Distance; heu < bfs.Distance {
			t.Fatalf("trial %d: HEU %d below exact %d", trial, heu, bfs.Distance)
		}
		// The path's weighted cost realizes the distance and still reaches
		// the target.
		if bfs.Path.WeightedCost(m) != bfs.Distance {
			t.Fatalf("trial %d: path weighted cost %d != distance %d",
				trial, bfs.Path.WeightedCost(m), bfs.Distance)
		}
		got, err := bfs.Path.Apply(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !hypergraph.Isomorphic(got, b) {
			t.Fatalf("trial %d: weighted path does not reach target", trial)
		}
	}
}

func TestWeightedSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	m := CostModel{Node: 2, Edge: 3, Incidence: 1, NodeRelabel: 2, EdgeRelabel: 4}
	for trial := 0; trial < 20; trial++ {
		a := randomHypergraph(rng, 4, 3, 3)
		b := randomHypergraph(rng, 4, 3, 3)
		d1 := BFS(a, b, Options{Costs: &m}).Distance
		d2 := BFS(b, a, Options{Costs: &m}).Distance
		if d1 != d2 {
			t.Fatalf("trial %d: weighted HGED asymmetric: %d vs %d", trial, d1, d2)
		}
	}
}

func TestWeightedThreshold(t *testing.T) {
	g, h := egoPair()
	scaled := CostModel{Node: 2, Edge: 2, Incidence: 2, NodeRelabel: 2, EdgeRelabel: 2}
	res := BFS(g, h, Options{Costs: &scaled, Threshold: 11})
	if !res.Exceeded {
		t.Fatal("distance 12 must exceed τ=11")
	}
	res = BFS(g, h, Options{Costs: &scaled, Threshold: 12})
	if res.Exceeded || res.Distance != 12 {
		t.Fatalf("τ=12: %+v", res)
	}
}

func TestWeightedLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	models := []CostModel{
		UnitCosts(),
		{Node: 2, Edge: 3, Incidence: 1, NodeRelabel: 2, EdgeRelabel: 4},
		{Node: 5, Edge: 1, Incidence: 2, NodeRelabel: 1, EdgeRelabel: 1},
		{Node: 3, Edge: 2, Incidence: 4, NodeRelabel: 6, EdgeRelabel: 3},
	}
	for trial := 0; trial < 40; trial++ {
		a := randomHypergraph(rng, 4, 3, 3)
		b := randomHypergraph(rng, 4, 3, 3)
		m := models[trial%len(models)]
		d := BFS(a, b, Options{Costs: &m}).Distance
		lb := newPairModel(a, b, m).rootLowerBound()
		if lb > d {
			t.Fatalf("trial %d (%+v): weighted lower bound %d > distance %d\na=%v\nb=%v",
				trial, m, lb, d, a, b)
		}
	}
}

// WeightedCost returns the path's total cost under a cost model: the
// tests' independent pricing of a returned path, op by op.
func (p *Path) WeightedCost(m CostModel) int {
	total := 0
	for _, op := range p.Ops {
		switch op.Kind {
		case OpNodeInsert, OpNodeDelete:
			total += m.Node
		case OpEdgeInsert, OpEdgeDelete:
			total += m.Edge
		case OpEdgeExtend, OpEdgeReduce:
			total += m.Incidence
		case OpNodeRelabel:
			total += m.NodeRelabel
		case OpEdgeRelabel:
			total += m.EdgeRelabel
		}
	}
	return total
}

func TestPathWeightedCostKinds(t *testing.T) {
	p := &Path{Ops: []Op{
		{Kind: OpNodeInsert}, {Kind: OpNodeDelete},
		{Kind: OpEdgeInsert}, {Kind: OpEdgeDelete},
		{Kind: OpEdgeExtend}, {Kind: OpEdgeReduce},
		{Kind: OpNodeRelabel}, {Kind: OpEdgeRelabel},
	}}
	m := CostModel{Node: 1, Edge: 10, Incidence: 100, NodeRelabel: 1000, EdgeRelabel: 10000}
	if got := p.WeightedCost(m); got != 2*1+2*10+2*100+1000+10000 {
		t.Fatalf("weighted cost = %d", got)
	}
}
