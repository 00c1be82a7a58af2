package baseline

import (
	"math"
	"math/rand"
	"testing"

	"hged/internal/hypergraph"
)

// simple builds nodes {0,1,2,3} with hyperedges {0,1,2} and {1,2,3}, giving
// Γ(0) = {1,2}, Γ(1) = {0,2,3}, Γ(2) = {0,1,3}, Γ(3) = {1,2}.
func simple() *hypergraph.Hypergraph {
	g := hypergraph.New(4)
	g.AddEdge(1, 0, 1, 2)
	g.AddEdge(1, 1, 2, 3)
	return g
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSimilarityIndicesHandComputed(t *testing.T) {
	g := simple()
	if got := CommonNeighbors(g, 0, 3); got != 2 {
		t.Fatalf("CN(0,3) = %v, want 2", got)
	}
	if got := CommonNeighbors(g, 0, 1); got != 1 {
		t.Fatalf("CN(0,1) = %v, want 1", got)
	}
	if got := Jaccard(g, 0, 3); !almost(got, 1) {
		t.Fatalf("J(0,3) = %v, want 1", got)
	}
	if got := Jaccard(g, 0, 1); !almost(got, 0.25) {
		t.Fatalf("J(0,1) = %v, want 0.25", got)
	}
	if got := AdamicAdar(g, 0, 3); !almost(got, 2/math.Log(3)) {
		t.Fatalf("AA(0,3) = %v, want %v", got, 2/math.Log(3))
	}
	if got := ResourceAllocation(g, 0, 3); !almost(got, 2.0/3.0) {
		t.Fatalf("RA(0,3) = %v, want 2/3", got)
	}
}

func TestSimilarityIsolatedNodes(t *testing.T) {
	g := hypergraph.New(3)
	g.AddEdge(1, 0, 1)
	for name, f := range map[string]func(*hypergraph.Hypergraph, hypergraph.NodeID, hypergraph.NodeID) float64{
		"CN": CommonNeighbors, "J": Jaccard, "AA": AdamicAdar, "RA": ResourceAllocation,
	} {
		if got := f(g, 0, 2); got != 0 {
			t.Fatalf("%s with isolated node = %v, want 0", name, got)
		}
	}
}

func TestSimilaritySymmetry(t *testing.T) {
	g := simple()
	for u := hypergraph.NodeID(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if !almost(Jaccard(g, u, v), Jaccard(g, v, u)) {
				t.Fatalf("Jaccard asymmetric at (%d,%d)", u, v)
			}
			if !almost(AdamicAdar(g, u, v), AdamicAdar(g, v, u)) {
				t.Fatalf("AA asymmetric at (%d,%d)", u, v)
			}
		}
	}
}

func TestLogRegSeparable(t *testing.T) {
	// y = 1 iff x0 > 0.5, clean separation.
	rng := rand.New(rand.NewSource(3))
	var xs [][]float64
	var ys []int
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		y := 0
		if x > 0.5 {
			y = 1
		}
		xs = append(xs, []float64{x, rng.Float64()})
		ys = append(ys, y)
	}
	var m LogReg
	if err := m.Train(xs, ys); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{0.9, 0.5}); p < 0.7 {
		t.Fatalf("P(positive) = %v, want high", p)
	}
	if p := m.Predict([]float64{0.1, 0.5}); p > 0.3 {
		t.Fatalf("P(negative) = %v, want low", p)
	}
}

func TestLogRegErrors(t *testing.T) {
	var m LogReg
	if err := m.Train(nil, nil); err == nil {
		t.Fatal("empty training set must fail")
	}
	if err := m.Train([][]float64{{1}}, []int{1, 0}); err == nil {
		t.Fatal("row/label mismatch must fail")
	}
	if err := m.Train([][]float64{{1, 2}, {1}}, []int{1, 0}); err == nil {
		t.Fatal("ragged rows must fail")
	}
}

func TestSigmoidClamps(t *testing.T) {
	if sigmoid(-1000) != 0 || sigmoid(1000) != 1 {
		t.Fatal("sigmoid must clamp extremes")
	}
	if !almost(sigmoid(0), 0.5) {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

// communities builds two 4-node communities with all-but-one triple each,
// mirroring the predict package's fixture.
func communities() *hypergraph.Hypergraph {
	g := hypergraph.New(0)
	for i := 0; i < 8; i++ {
		l := hypergraph.Label(1)
		if i >= 4 {
			l = 2
		}
		g.AddNode(l)
	}
	add := func(l hypergraph.Label, b hypergraph.NodeID) {
		g.AddEdge(l, b, b+1, b+2)
		g.AddEdge(l, b, b+1, b+3)
		g.AddEdge(l, b, b+2, b+3)
	}
	add(10, 0)
	add(20, 4)
	return g
}

func TestJSPredictsWithinCommunities(t *testing.T) {
	g := communities()
	p, err := NewJS(g, JSOptions{Lambda: 3, MinSim: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	preds := p.Run()
	if len(preds) == 0 {
		t.Fatal("JS found nothing")
	}
	for _, pr := range preds {
		side := pr.Nodes[0] < 4
		for _, v := range pr.Nodes {
			if (v < 4) != side {
				t.Fatalf("JS prediction crosses communities: %v", pr.Nodes)
			}
		}
	}
}

func TestJSDefaultThreshold(t *testing.T) {
	g := communities()
	if _, err := NewJS(g, JSOptions{}); err != nil {
		t.Fatal(err)
	}
	// MinSim very close to 1 still yields τ ≥ 1.
	if _, err := NewJS(g, JSOptions{MinSim: 0.999}); err != nil {
		t.Fatal(err)
	}
}

func TestLGRTrainsAndScores(t *testing.T) {
	g := communities()
	l, err := NewLGR(g, LGROptions{MinSize: 3, MaxSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The held-out triple {1,2,3} should score higher than a random
	// cross-community set.
	pos := l.Score([]hypergraph.NodeID{1, 2, 3})
	neg := l.Score([]hypergraph.NodeID{0, 4, 7})
	if pos <= neg {
		t.Fatalf("LGR score(missing triple)=%v ≤ score(cross set)=%v", pos, neg)
	}
}

func TestLGRPredictFindsMissingTriples(t *testing.T) {
	g := communities()
	l, err := NewLGR(g, LGROptions{MinSize: 3, MaxSize: 4, CandidatesPerNode: 8})
	if err != nil {
		t.Fatal(err)
	}
	preds := l.Predict()
	if len(preds) == 0 {
		t.Fatal("LGR predicted nothing")
	}
	// LGR's density feature favors whole communities; every prediction
	// must stay inside one community, and the community supersets of the
	// missing triples must be found.
	foundCommunity := false
	for _, pr := range preds {
		side := pr.Nodes[0] < 4
		for _, v := range pr.Nodes {
			if (v < 4) != side {
				t.Fatalf("LGR prediction crosses communities: %v", pr.Nodes)
			}
		}
		k := keyOf(pr.Nodes)
		if k == keyOf([]hypergraph.NodeID{0, 1, 2, 3}) || k == keyOf([]hypergraph.NodeID{4, 5, 6, 7}) {
			foundCommunity = true
		}
	}
	if !foundCommunity {
		t.Fatalf("community sets not among %d predictions", len(preds))
	}
}

func TestLGRFeatureVectorShape(t *testing.T) {
	g := communities()
	l, err := NewLGR(g, LGROptions{MinSize: 3, MaxSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := l.Features([]hypergraph.NodeID{0, 1, 2})
	if len(f) != 6 {
		t.Fatalf("feature dim = %d, want 6", len(f))
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is %v", i, v)
		}
	}
	if len(l.Features([]hypergraph.NodeID{0})) != 6 {
		t.Fatal("singleton features should be zero-valued 6-vector")
	}
}

func TestLGROptionValidation(t *testing.T) {
	g := communities()
	if _, err := NewLGR(g, LGROptions{MinSize: 6, MaxSize: 3}); err == nil {
		t.Fatal("invalid size bounds must fail")
	}
	empty := hypergraph.New(5)
	if _, err := NewLGR(empty, LGROptions{}); err == nil {
		t.Fatal("no training hyperedges must fail")
	}
}
