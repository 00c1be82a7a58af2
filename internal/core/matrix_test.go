package core

import (
	"math/rand"
	"testing"

	"hged/internal/gen"
	"hged/internal/hypergraph"
)

func TestMatrixBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	graphs := make([]*hypergraph.Hypergraph, 5)
	for i := range graphs {
		graphs[i] = randomHypergraph(rng, 4, 3, 3)
	}
	m := Matrix(graphs, Options{}, 1)
	for i := range graphs {
		if m[i][i] != 0 {
			t.Fatalf("diagonal [%d][%d] = %d", i, i, m[i][i])
		}
		for j := range graphs {
			if m[i][j] != m[j][i] {
				t.Fatalf("asymmetric at (%d,%d): %d vs %d", i, j, m[i][j], m[j][i])
			}
			if want := Distance(graphs[i], graphs[j]); m[i][j] != want {
				t.Fatalf("[%d][%d] = %d, want %d", i, j, m[i][j], want)
			}
		}
	}
}

func TestMatrixParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	graphs := make([]*hypergraph.Hypergraph, 6)
	for i := range graphs {
		graphs[i] = randomHypergraph(rng, 4, 3, 3)
	}
	seq := Matrix(graphs, Options{}, 1)
	par := Matrix(graphs, Options{}, 4)
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("parallel differs at (%d,%d): %d vs %d", i, j, seq[i][j], par[i][j])
			}
		}
	}
}

func TestMatrixThreshold(t *testing.T) {
	g, h := egoPair() // distance 6
	m := Matrix([]*hypergraph.Hypergraph{g, h}, Options{Threshold: 3}, 1)
	if m[0][1] != NotWithin {
		t.Fatalf("expected NotWithin, got %d", m[0][1])
	}
	m = Matrix([]*hypergraph.Hypergraph{g, h}, Options{Threshold: 6}, 1)
	if m[0][1] != 6 {
		t.Fatalf("expected 6, got %d", m[0][1])
	}
}

// TestMatrixCappedEntriesStayWithinTau: under a small expansion cap a BFS
// returns its incumbent without a proven exceedance; Matrix must write such
// an entry as NotWithin when it is above τ, as it does a proven one.
func TestMatrixCappedEntriesStayWithinTau(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	graphs := make([]*hypergraph.Hypergraph, 12)
	for i := range graphs {
		graphs[i] = gen.Uniform(6+rng.Intn(4), 3+rng.Intn(4), 3, 3, 2, rng.Int63()+1)
	}
	cappedAbove := 0
	for _, tau := range []int{1, 3, 5} {
		m := Matrix(graphs, Options{Threshold: tau, MaxExpansions: 2}, 2)
		for i := range m {
			for j, d := range m[i] {
				if d != NotWithin && d > tau {
					t.Fatalf("τ %d: entry (%d, %d) = %d, want NotWithin or ≤ τ", tau, i, j, d)
				}
				if res := BFS(graphs[i], graphs[j], Options{Threshold: tau, MaxExpansions: 2}); i < j && !res.Exact && res.Distance > tau {
					cappedAbove++
				}
			}
		}
	}
	if cappedAbove == 0 {
		t.Fatal("no capped entry had an incumbent above τ; the test checks nothing")
	}
}

func TestNodeMatrix(t *testing.T) {
	g := hypergraph.Fig1()
	nodes := []hypergraph.NodeID{hypergraph.U(4), hypergraph.U(5)}
	m := NodeMatrix(g, nodes, Options{}, 2)
	if m[0][1] != 6 {
		t.Fatalf("σ(u4,u5) via matrix = %d, want 6", m[0][1])
	}
}

func TestMatrixEmpty(t *testing.T) {
	if got := Matrix(nil, Options{}, 3); len(got) != 0 {
		t.Fatal("empty input should give empty matrix")
	}
}
