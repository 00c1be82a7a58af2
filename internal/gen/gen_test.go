package gen

import (
	"math"
	"testing"

	"hged/internal/hypergraph"
)

func TestPlantedCommunitiesShape(t *testing.T) {
	g, comm, err := PlantedCommunities(Config{
		Nodes: 120, Edges: 300,
		MeanEdgeSize: 4, MedianEdgeSize: 3,
		NodeLabelCount: 5, Communities: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 120 || g.NumEdges() != 300 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if len(comm) != 120 {
		t.Fatalf("community assignments = %d", len(comm))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	s := hypergraph.Summarize(g)
	if s.MeanEdgeSize < 2.5 || s.MeanEdgeSize > 6 {
		t.Fatalf("mean edge size %v far from target 4", s.MeanEdgeSize)
	}
	if s.NodeLabels > 5 {
		t.Fatalf("node labels %d > requested 5", s.NodeLabels)
	}
}

func TestPlantedCommunitiesDeterministic(t *testing.T) {
	cfg := Config{Nodes: 50, Edges: 80, Seed: 42}
	a, _, _ := PlantedCommunities(cfg)
	b, _, _ := PlantedCommunities(cfg)
	if a.String() != b.String() {
		t.Fatal("same seed must produce identical graphs")
	}
	c, _, _ := PlantedCommunities(Config{Nodes: 50, Edges: 80, Seed: 43})
	if a.String() == c.String() {
		t.Fatal("different seeds should differ")
	}
}

func TestPlantedCommunitiesEdgesStayMostlyInside(t *testing.T) {
	g, comm, err := PlantedCommunities(Config{
		Nodes: 100, Edges: 200, Communities: 10, NoiseProb: 0.02, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pure := 0
	for _, e := range g.Edges() {
		inside := true
		for _, v := range e.Nodes[1:] {
			if comm[v] != comm[e.Nodes[0]] {
				inside = false
				break
			}
		}
		if inside {
			pure++
		}
	}
	if frac := float64(pure) / float64(g.NumEdges()); frac < 0.7 {
		t.Fatalf("only %.2f of hyperedges are community-pure", frac)
	}
}

func TestPlantedCommunitiesValidation(t *testing.T) {
	if _, _, err := PlantedCommunities(Config{Nodes: 0, Edges: 5}); err == nil {
		t.Fatal("zero nodes must fail")
	}
	if _, _, err := PlantedCommunities(Config{Nodes: 5, Edges: 5, NoiseProb: 1.5}); err == nil {
		t.Fatal("bad noise must fail")
	}
}

func TestSizeSamplerHitsTargets(t *testing.T) {
	g, _, err := PlantedCommunities(Config{
		Nodes: 2000, Edges: 4000,
		MeanEdgeSize: 24.2, MedianEdgeSize: 5,
		MaxEdgeSize: 120, Communities: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := hypergraph.Summarize(g)
	// Heavy-tailed target: median should land near 5, mean well above it.
	if s.MedianEdgeSize < 3 || s.MedianEdgeSize > 8 {
		t.Fatalf("median %d far from 5", s.MedianEdgeSize)
	}
	if s.MeanEdgeSize < 10 {
		t.Fatalf("mean %v not heavy-tailed toward 24", s.MeanEdgeSize)
	}
}

func TestUniform(t *testing.T) {
	g := Uniform(30, 50, 5, 3, 2, 9)
	if g.NumNodes() != 30 || g.NumEdges() != 50 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if e.Arity() < 2 || e.Arity() > 5 {
			t.Fatalf("edge size %d out of [2,5]", e.Arity())
		}
	}
	if Uniform(0, 5, 3, 1, 1, 1).NumNodes() != 0 {
		t.Fatal("empty uniform graph mishandled")
	}
}

func TestChurnCorpus(t *testing.T) {
	graphs, again := ChurnCorpus(), ChurnCorpus()
	if len(graphs) != 256 {
		t.Fatalf("%d graphs, want 256", len(graphs))
	}
	for i, g := range graphs {
		if n, m := g.NumNodes(), g.NumEdges(); n < 3 || n > 5 || m < 1 || m > 3 {
			t.Fatalf("graph %d: n=%d m=%d outside 3–5 nodes, 1–3 edges", i, n, m)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !hypergraph.Isomorphic(g, again[i]) {
			t.Fatalf("graph %d differs between calls", i)
		}
	}
}

func TestSubsampleFractions(t *testing.T) {
	g := Uniform(200, 400, 4, 3, 2, 11)
	sub := Subsample(g, 0.5, 1.0, 13)
	if got := sub.NumNodes(); got != 100 {
		t.Fatalf("kept %d nodes, want 100", got)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edges can only survive if all members survive; with half the nodes
	// and size-≥2 edges, far fewer than 400 remain.
	if sub.NumEdges() >= g.NumEdges() {
		t.Fatalf("subsample kept %d edges of %d", sub.NumEdges(), g.NumEdges())
	}
	full := Subsample(g, 1, 1, 13)
	if full.NumNodes() != g.NumNodes() || full.NumEdges() != g.NumEdges() {
		t.Fatal("full subsample should be the whole graph")
	}
	empty := Subsample(g, 0, 1, 13)
	if empty.NumNodes() != 0 || empty.NumEdges() != 0 {
		t.Fatal("zero-fraction subsample should be empty")
	}
}

func TestSubsampleEdgeFraction(t *testing.T) {
	g := Uniform(100, 1000, 3, 2, 2, 17)
	sub := Subsample(g, 1.0, 0.5, 19)
	got := float64(sub.NumEdges()) / float64(g.NumEdges())
	if math.Abs(got-0.5) > 0.1 {
		t.Fatalf("edge fraction %v far from 0.5", got)
	}
}

func TestSubsampleClampsFractions(t *testing.T) {
	g := Uniform(20, 10, 3, 2, 2, 23)
	if s := Subsample(g, 2.0, -1, 29); s.NumNodes() != 20 || s.NumEdges() != 0 {
		t.Fatalf("clamping failed: n=%d m=%d", s.NumNodes(), s.NumEdges())
	}
}
