package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hged/internal/hypergraph"
)

// denseGraph builds a deterministic random hypergraph big enough that an
// unassisted solver run needs far more than cancelCheckEvery expansions.
func denseGraph(n, m int, seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	g := hypergraph.New(0)
	for i := 0; i < n; i++ {
		g.AddNode(hypergraph.Label(1 + rng.Intn(3)))
	}
	for e := 0; e < m; e++ {
		perm := rng.Perm(n)
		k := 2 + rng.Intn(3)
		nodes := make([]hypergraph.NodeID, 0, k)
		for _, v := range perm[:k] {
			nodes = append(nodes, hypergraph.NodeID(v))
		}
		g.AddEdge(hypergraph.Label(1+rng.Intn(3)), nodes...)
	}
	return g
}

// A cancelled context must stop every solver within one polling stride of
// the check, reported as Cancelled with Exact=false — not run the search to
// its (astronomically larger) completion or its 4M-expansion budget.
//
// On the 7-node pair HGED-DFS spends most expansions inside Algorithm 2,
// which adds them to the count in blocks per leaf: the poll must still fire
// when the total crosses a stride, not only when a node step lands on one.
func TestSolversHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Pruning off so an uncancelled run could not terminate quickly.
	opts := Options{Context: ctx, DisableLowerBound: true, DisableUpperBound: true}
	for _, pr := range [][2]*hypergraph.Hypergraph{
		{denseGraph(12, 8, 1), denseGraph(12, 8, 2)},
		{denseGraph(7, 5, 1), denseGraph(7, 5, 2)},
	} {
		g, h := pr[0], pr[1]
		for _, tc := range []struct {
			name string
			run  func() Result
		}{
			{"BFS", func() Result { return BFS(g, h, opts) }},
			{"DFS", func() Result { return DFS(g, h, opts) }},
			{"DFSHungarian", func() Result { return DFSHungarian(g, h, opts) }},
			{"HEU", func() Result { return HEU(g, h, opts) }},
		} {
			name := fmt.Sprintf("%s %d nodes", tc.name, g.NumNodes())
			res := tc.run()
			if !res.Cancelled {
				t.Errorf("%s: Cancelled = false after pre-cancelled context", name)
			}
			if res.Exact {
				t.Errorf("%s: Exact = true for a cancelled run", name)
			}
			if res.Expanded > 2*cancelCheckEvery {
				t.Errorf("%s: expanded %d states after cancellation, want prompt stop", name, res.Expanded)
			}
		}
	}
}

// A live (never cancelled) context must not change results: same distance
// as a nil context, Cancelled=false, Exact=true.
func TestLiveContextDoesNotPerturbSolvers(t *testing.T) {
	g := denseGraph(6, 4, 3)
	h := denseGraph(6, 4, 4)
	want := BFS(g, h, Options{})
	got := BFS(g, h, Options{Context: context.Background()})
	if got.Distance != want.Distance || got.Cancelled || !got.Exact {
		t.Fatalf("live context changed the result: got %+v, want distance %d", got, want.Distance)
	}
}
