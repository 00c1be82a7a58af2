package core

import (
	"sync"
	"testing"

	"hged/internal/hypergraph"
)

// TestSolverBFSAllocBound guards the slab/arena tentpole: a warm solver
// re-solving a small pair must stay within a fixed allocation budget. The
// measured cost is 21 allocs/solve (Strategy-2 mapping construction and
// path extraction — none of it per-state); the bound leaves headroom
// without letting per-push state allocations (which alone would add
// hundreds) sneak back in.
func TestSolverBFSAllocBound(t *testing.T) {
	g, h := egoPair()
	sv := new(solver)
	want, _ := sv.within(AlgBFS, g, h, unbounded, Options{})
	allocs := testing.AllocsPerRun(20, func() {
		if res, _ := sv.within(AlgBFS, g, h, unbounded, Options{}); res.Distance != want.Distance {
			t.Errorf("distance drifted: %d vs %d", res.Distance, want.Distance)
		}
	})
	if allocs > 40 {
		t.Fatalf("warm solver allocated %.1f per solve, budget 40", allocs)
	}
}

// TestInducedCompileAllocFree guards the σ miss path of HEP-BFS: once warm,
// compiling two node sets of a host into a solver's pair, the set-up
// WithinInduced does before searching, allocates nothing.
func TestInducedCompileAllocFree(t *testing.T) {
	host := hypergraph.Fig1()
	c := host.Freeze()
	a := host.Neighbors(hypergraph.U(4))
	b := host.Neighbors(hypergraph.U(5))
	sv := new(solver)
	sv.p.compile(c, a, c, b, UnitCosts())
	allocs := testing.AllocsPerRun(20, func() {
		sv.p.compile(c, a, c, b, UnitCosts())
	})
	if allocs > 0 {
		t.Fatalf("warm induced compile allocated %.1f per call, want 0", allocs)
	}
}

// TestEDCInaccurateAllocFree guards the memoized target-edge index and the
// EDC scratch: after one evaluation, further evaluations on the same pair
// must not allocate at all (HGED-HEU calls this once per complete node
// mapping visited).
func TestEDCInaccurateAllocFree(t *testing.T) {
	g, h := egoPair()
	p := newPair(g, h)
	nodeMap := make([]int, p.paddedN)
	for i := range nodeMap {
		nodeMap[i] = i
	}
	want := p.edcInaccurate(nodeMap)
	allocs := testing.AllocsPerRun(20, func() {
		if got := p.edcInaccurate(nodeMap); got != want {
			t.Errorf("EDC value drifted: %d vs %d", got, want)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm edcInaccurate allocated %.1f per call, want 0", allocs)
	}
}

// TestEgoCacheHitAllocFree guards the memoized ego cache: a repeated
// Ego(v) on an unmodified hypergraph is a pure cache hit.
func TestEgoCacheHitAllocFree(t *testing.T) {
	g, _ := egoPair()
	host := hypergraph.NewLabeled([]hypergraph.Label{2, 2, 2, 3, 3, 1, 2, 3})
	host.AddEdge(1, 0, 1, 2)
	host.AddEdge(1, 2, 3, 4)
	host.AddEdge(2, 4, 5, 6)
	host.AddEdge(1, 5, 6, 7)
	want := host.Ego(3)
	allocs := testing.AllocsPerRun(20, func() {
		if host.Ego(3) != want {
			t.Error("cached Ego returned a different instance")
		}
	})
	if allocs > 0 {
		t.Fatalf("cached Ego hit allocated %.1f per call, want 0", allocs)
	}
	_ = g
}

// TestPooledBFSConcurrentDeterminism hammers the pooled package-level BFS
// from many goroutines on a mix of pairs and checks every result — distance
// and edit path — equals the sequential answer. Run under -race this also
// proves pooled solvers never share state across concurrent callers.
func TestPooledBFSConcurrentDeterminism(t *testing.T) {
	g, h := egoPair()
	seqGH := BFS(g, h, Options{})
	seqHG := BFS(h, g, Options{})

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var res, want Result
				if (w+i)%2 == 0 {
					res, want = BFS(g, h, Options{}), seqGH
				} else {
					res, want = BFS(h, g, Options{}), seqHG
				}
				if res.Distance != want.Distance {
					t.Errorf("concurrent distance %d, sequential %d", res.Distance, want.Distance)
					return
				}
				if len(res.Path.Ops) != len(want.Path.Ops) {
					t.Errorf("concurrent path has %d ops, sequential %d", len(res.Path.Ops), len(want.Path.Ops))
					return
				}
				for k := range res.Path.Ops {
					if res.Path.Ops[k] != want.Path.Ops[k] {
						t.Errorf("op %d differs: %+v vs %+v", k, res.Path.Ops[k], want.Path.Ops[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	hits, misses := PoolStats()
	if hits+misses <= 0 {
		t.Fatal("solver pool counters never moved")
	}
}

// TestWithinReusesPooledSolver guards the solver pool: sequential Within
// calls must be served by warm solvers, so a dropped Put (every call then
// allocating a fresh solver) fails here. sync.Pool may still drop an
// object — on a GC, and on purpose for some Puts under -race — so the
// bound allows half the calls to miss.
func TestWithinReusesPooledSolver(t *testing.T) {
	g, h := egoPair()
	Within(g, h, 6, Options{})
	const calls = 64
	_, before := PoolStats()
	for i := 0; i < calls; i++ {
		if _, ok := Within(g, h, 6, Options{}); !ok {
			t.Fatal("HGED of the Fig. 1 pair is 6, Within(6) reported false")
		}
	}
	if _, after := PoolStats(); after-before > calls/2 {
		t.Fatalf("%d of %d sequential Within calls built a fresh solver, want at most %d", after-before, calls, calls/2)
	}
}
