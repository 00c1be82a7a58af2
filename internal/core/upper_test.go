package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSampleMemoMatchesFreshRand checks the Strategy-2 sample memo against
// the sequence a fresh rand.New(rand.NewSource(seed)) draws, over a grid of
// (seed, samples, N, M) large enough to overflow the memo, on the first
// (generating) and second (memoized) call alike.
func TestSampleMemoMatchesFreshRand(t *testing.T) {
	p := new(pair)
	for _, seed := range []int64{1, 2, 7, -3, 1 << 40} {
		for _, samples := range []int{1, 3, 5} {
			for _, n := range []int{0, 1, 2, 7, 33} {
				for _, m := range []int{0, 1, 4, 16} {
					p.paddedN, p.paddedM = n, m
					rng := rand.New(rand.NewSource(seed))
					want := make([][]int, 0, 2*samples)
					for s := 0; s < samples; s++ {
						want = append(want, rng.Perm(n), rng.Perm(m))
					}
					for call := 0; call < 2; call++ {
						got := p.samplePerms(samples, seed)
						if len(got) != len(want) {
							t.Fatalf("seed %d samples %d N %d M %d call %d: %d perms, want %d", seed, samples, n, m, call, len(got), len(want))
						}
						for i := range want {
							if !slices.Equal(got[i], want[i]) {
								t.Fatalf("seed %d samples %d N %d M %d call %d: perm %d = %v, want %v", seed, samples, n, m, call, i, got[i], want[i])
							}
						}
					}
					if len(p.sampleMemo) > sampleMemoLimit {
						t.Fatalf("memo holds %d entries, limit %d", len(p.sampleMemo), sampleMemoLimit)
					}
				}
			}
		}
	}
}

// TestSolverResultsDoNotAliasSampleMemo scribbles over every returned
// mapping and checks that a warm solver still answers like a fresh one. A
// budget of one expansion makes the Strategy-2 incumbent the answer, so a
// winning random sample reaches the caller's Path.
func TestSolverResultsDoNotAliasSampleMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sv := new(solver)
	sampleWins := 0
	for i := 0; i < 400; i++ {
		g, h := randomHypergraph(rng, 7, 5, 2), randomHypergraph(rng, 7, 5, 2)
		opts := Options{MaxExpansions: 1}
		for round := 0; round < 2; round++ {
			got, _ := sv.within(AlgBFS, g, h, opts.Tau(), opts)
			want, _ := new(solver).within(AlgBFS, g, h, opts.Tau(), opts)
			if got.Distance != want.Distance || fmt.Sprint(got.Path) != fmt.Sprint(want.Path) {
				t.Fatalf("pair %d round %d: warm solver %d %v, fresh %d %v", i, round, got.Distance, got.Path, want.Distance, want.Path)
			}
			if got.Path == nil {
				continue
			}
			p := newPair(g, h)
			if greedy := p.greedyMapping(); !slices.Equal(greedy.NodeMap, got.Path.Mapping.NodeMap) ||
				!slices.Equal(greedy.EdgeMap, got.Path.Mapping.EdgeMap) {
				sampleWins++
			}
			for k := range got.Path.Mapping.NodeMap {
				got.Path.Mapping.NodeMap[k] = 0
			}
			for k := range got.Path.Mapping.EdgeMap {
				got.Path.Mapping.EdgeMap[k] = 0
			}
		}
	}
	if sampleWins == 0 {
		t.Fatal("no random sample ever beat the greedy mapping; the test checks nothing")
	}
}

// TestBFSRootBoundShortCircuit checks that HGED-BFS returns without
// expanding anything — Exceeded, Exact, Distance τ+1, no Path — exactly
// when the root Strategy-3 bound already exceeds τ, under every ablation
// of Strategy 2.
func TestBFSRootBoundShortCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shorted := 0
	for i := 0; i < 300; i++ {
		g, h := randomHypergraph(rng, 6, 5, 3), randomHypergraph(rng, 6, 5, 3)
		lb := LowerBound(g, h)
		for tau := 1; tau <= 8; tau++ {
			for _, noUB := range []bool{false, true} {
				res := BFS(g, h, Options{Threshold: tau, DisableUpperBound: noUB})
				short := res.Expanded == 0 && res.Exceeded && res.Path == nil
				if short != (lb > tau) {
					t.Fatalf("pair %d τ %d noUB %v: lb %d, result %+v", i, tau, noUB, lb, res)
				}
				if short {
					shorted++
					if res.Distance != tau+1 || !res.Exact || res.Cancelled {
						t.Fatalf("pair %d τ %d: short-circuit result %+v", i, tau, res)
					}
				}
			}
		}
	}
	if shorted == 0 {
		t.Fatal("no pair exercised the short circuit")
	}
}

// TestDistanceWithinMatchesUnthresholded checks that the thresholded
// search, short circuit included, agrees with an unthresholded solve on
// random pairs, at every τ from 0 to the distance + 2: DistanceWithin and
// Within under unit and weighted costs are within exactly when HGED ≤ τ,
// and then report the exact distance. At an expansion cap of 2 Within may
// miss, but within always means Distance ≤ τ.
func TestDistanceWithinMatchesUnthresholded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	weighted := CostModel{Node: 2, Edge: 3, Incidence: 1, NodeRelabel: 2, EdgeRelabel: 4}
	for i := 0; i < 200; i++ {
		g, h := randomHypergraph(rng, 5, 4, 3), randomHypergraph(rng, 5, 4, 3)
		for _, costs := range []*CostModel{nil, &weighted} {
			exact := BFS(g, h, Options{Costs: costs}).Distance
			for tau := 0; tau <= exact+2; tau++ {
				if costs == nil {
					d, ok := DistanceWithin(g, h, tau)
					if ok != (exact <= tau) || (ok && d != exact) {
						t.Fatalf("pair %d τ %d: DistanceWithin = (%d, %v), exact HGED %d", i, tau, d, ok, exact)
					}
				}
				res, ok := Within(g, h, tau, Options{Costs: costs})
				if ok != (exact <= tau) || (ok && res.Distance != exact) || ok != res.Within(tau) {
					t.Fatalf("pair %d costs %v τ %d: Within = (%+v, %v), exact HGED %d", i, costs, tau, res, ok, exact)
				}
				res, ok = Within(g, h, tau, Options{Costs: costs, MaxExpansions: 2})
				if ok && (res.Distance > tau || res.Distance < exact) {
					t.Fatalf("pair %d costs %v τ %d cap 2: within at distance %d, exact HGED %d", i, costs, tau, res.Distance, exact)
				}
			}
		}
	}
}
