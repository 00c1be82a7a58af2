package search

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hged/internal/core"
	"hged/internal/gen"
	"hged/internal/hypergraph"
)

// corpus builds a deterministic mixed corpus of small hypergraphs.
func corpus(size int, seed int64) []*hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*hypergraph.Hypergraph, size)
	for i := range graphs {
		graphs[i] = gen.Uniform(3+rng.Intn(4), rng.Intn(4), 3, 3, 2, rng.Int63()+1)
	}
	return graphs
}

func TestSearchMatchesBruteForce(t *testing.T) {
	graphs := corpus(40, 11)
	ix := Build(graphs)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		q := gen.Uniform(3+rng.Intn(4), rng.Intn(4), 3, 3, 2, rng.Int63()+1)
		tau := rng.Intn(8)
		got, stats, err := ix.Search(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		var want []Match
		for i, g := range graphs {
			if d, ok := core.DistanceWithin(q, g, tau); ok {
				want = append(want, Match{ID: i, Distance: d})
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].Distance != want[b].Distance {
				return want[a].Distance < want[b].Distance
			}
			return want[a].ID < want[b].ID
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d (τ=%d): got %d matches, want %d\ngot  %v\nwant %v",
				trial, tau, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: match %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
		if stats.PrunedByCount+stats.PrunedByLabel+stats.PrunedByCard+stats.PrunedByBound+
			stats.Verified != stats.Candidates {
			t.Fatalf("trial %d: stats don't add up: %+v", trial, stats)
		}
		if stats.PrunedByBound != 0 {
			t.Fatalf("trial %d: range search must not bound-prune: %+v", trial, stats)
		}
	}
}

func TestSearchFiltersPrune(t *testing.T) {
	graphs := corpus(60, 17)
	ix := Build(graphs)
	q := gen.Uniform(4, 2, 3, 3, 2, 999)
	_, stats, err := ix.Search(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Verified == stats.Candidates {
		t.Fatalf("filters pruned nothing at τ=2: %+v", stats)
	}
}

func TestSearchSelfIsZeroDistanceMatch(t *testing.T) {
	graphs := corpus(10, 23)
	ix := Build(graphs)
	matches, _, err := ix.Search(graphs[4], 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.ID == 4 && m.Distance == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("self search must return the graph itself: %v", matches)
	}
}

func TestSearchNegativeTau(t *testing.T) {
	ix := Build(corpus(3, 29))
	if _, _, err := ix.Search(hypergraph.New(1), -1); err == nil {
		t.Fatal("negative τ must error")
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	graphs := corpus(30, 31)
	ix := Build(graphs)
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 6; trial++ {
		q := gen.Uniform(3+rng.Intn(3), rng.Intn(3), 3, 3, 2, rng.Int63()+1)
		k := 1 + rng.Intn(5)
		got, stats, err := ix.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PrunedByCount+stats.PrunedByLabel+stats.PrunedByCard+stats.PrunedByBound+
			stats.Verified != stats.Candidates {
			t.Fatalf("trial %d: kNN stats don't add up: %+v", trial, stats)
		}
		// Brute-force k smallest distances (ties arbitrary → compare the
		// distance multiset only).
		dists := make([]int, len(graphs))
		for i, g := range graphs {
			dists[i] = core.Distance(q, g)
		}
		sort.Ints(dists)
		if len(got) != k {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), k)
		}
		for i := 0; i < k; i++ {
			if got[i].Distance != dists[i] {
				t.Fatalf("trial %d: result %d distance %d, want %d (%v vs %v)",
					trial, i, got[i].Distance, dists[i], got, dists[:k])
			}
		}
		// Verify the reported distances are genuine.
		for _, m := range got {
			if d := core.Distance(q, graphs[m.ID]); d != m.Distance {
				t.Fatalf("trial %d: reported %d but true distance %d", trial, m.Distance, d)
			}
		}
	}
}

// TestNearestMatchesBruteForceOnTies compares the whole top k — IDs
// included — with brute force sorted by (distance, ID), for every member of
// the tie-heavy churn-shaped corpus as the query, sequentially and on four
// workers.
// TestSortCandidatesMatchesSortSlice checks kNN's candidate order against
// the sort.Slice on (bound, id) it replaced, on random bounds drawn from
// ranges narrow enough to tie often, including all-equal, empty and
// single-member corpora, with candidates given in id order as
// NearestContext builds them.
func TestSortCandidatesMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		bounds := make([]int, rng.Intn(40))
		spread := 1 + rng.Intn(12)
		for i := range bounds {
			bounds[i] = rng.Intn(spread)
		}
		want := make([]candidate, len(bounds))
		for i, b := range bounds {
			want[i] = candidate{id: i, bound: b}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].bound != want[b].bound {
				return want[a].bound < want[b].bound
			}
			return want[a].id < want[b].id
		})
		got := make([]candidate, len(bounds))
		for i, b := range bounds {
			got[i] = candidate{id: i, bound: b}
		}
		if sortCandidates(got); !slices.Equal(got, want) {
			t.Fatalf("bounds %v: sorted %v, want %v", bounds, got, want)
		}
	}
}

func TestNearestMatchesBruteForceOnTies(t *testing.T) {
	graphs := gen.ChurnCorpus()
	dist := core.Matrix(graphs, core.Options{}, 2)
	for _, p := range []int{0, 4} {
		ix := Build(graphs)
		ix.Parallelism = p
		for qi, q := range graphs {
			all := make([]Match, len(graphs))
			for i := range graphs {
				all[i] = Match{ID: i, Distance: dist[qi][i]}
			}
			sortMatches(all)
			for _, k := range []int{1, 3, 5} {
				got, _, err := ix.Nearest(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, all[:k]) {
					t.Fatalf("P=%d q=%d k=%d: got %v, want %v", p, qi, k, got, all[:k])
				}
			}
		}
	}
}

// TestNearestZeroThreshold: once the k-th best distance is 0, a candidate
// whose bound is 0 but whose ID is above the k-th match cannot enter, so it
// is not verified. At a k-th best of 0 the search once verified such a
// candidate unbounded (core.Options reads Threshold 0 as "no threshold")
// and counted it within.
func TestNearestZeroThreshold(t *testing.T) {
	a, b := zeroBoundPair()
	ix := Build([]*hypergraph.Hypergraph{a, a, b})
	got, stats, err := ix.Nearest(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Match{{0, 0}, {1, 0}}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	want := FilterStats{Candidates: 3, PrunedByBound: 1, Verified: 2, VerifiedWithin: 2}
	if stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
}

// zeroBoundPair returns two labelled 3-node paths: b has a's labels and
// arities, so its signature bound from a is 0, but its centre carries
// another label, so HGED(a, b) > 0.
func zeroBoundPair() (a, b *hypergraph.Hypergraph) {
	a = hypergraph.NewLabeled([]hypergraph.Label{1, 2, 3})
	a.AddEdge(1, 0, 1)
	a.AddEdge(1, 1, 2)
	b = hypergraph.NewLabeled([]hypergraph.Label{1, 2, 3})
	b.AddEdge(1, 0, 1)
	b.AddEdge(1, 0, 2)
	return a, b
}

// TestNearestTieLoserVerifiedStrictly: a candidate whose ID is above the
// k-th match's is verified at τ−1, so one that reaches distance τ — a tie
// it would lose — is not counted within.
func TestNearestTieLoserVerifiedStrictly(t *testing.T) {
	a, b := zeroBoundPair()
	ix := Build([]*hypergraph.Hypergraph{b, b})
	got, stats, err := ix.Nearest(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Match{{0, core.Distance(a, b)}}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	want := FilterStats{Candidates: 2, Verified: 2, VerifiedWithin: 1}
	if stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
}

// TestVerifyZeroThresholdMatchesIsomorphic: verification at τ = 0 — a
// core.Within bounded at 0 itself, which pushes only f = 0 states —
// agrees with the isomorphism test on every pair of the churn-shaped and
// planted corpora, called directly and through the index's verify.
func TestVerifyZeroThresholdMatchesIsomorphic(t *testing.T) {
	planted, _ := plantedCorpus(t)
	for name, graphs := range map[string][]*hypergraph.Hypergraph{"churn": gen.ChurnCorpus(), "planted": planted} {
		ix := Build(graphs)
		isomorphic := 0
		for i, q := range graphs {
			for j, g := range graphs {
				iso := hypergraph.Isomorphic(q, g)
				res, ok := core.Within(q, g, 0, core.Options{})
				if ok != iso || ok && res.Distance != 0 {
					t.Fatalf("%s (%d, %d): Within at τ=0 = (%+v, %v), Isomorphic = %v", name, i, j, res, ok, iso)
				}
				got := ix.verify(context.Background(), q, g, 0)
				if got.within != iso || iso && got.d != 0 {
					t.Fatalf("%s (%d, %d): verify at τ=0 = %+v, Isomorphic = %v", name, i, j, got, iso)
				}
				if iso {
					isomorphic++
				}
			}
		}
		if isomorphic <= len(graphs) {
			t.Fatalf("%s: only %d isomorphic pairs; the corpus must hold some beyond the diagonal", name, isomorphic)
		}
	}
}

// TestSearchCappedMatchesStayWithinTau: a verification the expansion cap
// cuts short reports its BFS incumbent, which range search must accept
// only when it is within τ. These 6–9-node graphs at a cap of 2 expansions
// once returned matches at distances up to 17 for τ = 3.
func TestSearchCappedMatchesStayWithinTau(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := make([]*hypergraph.Hypergraph, 60)
	for i := range graphs {
		graphs[i] = gen.Uniform(6+rng.Intn(4), 3+rng.Intn(4), 3, 3, 2, rng.Int63()+1)
	}
	ix := Build(graphs)
	ix.MaxExpansions = 2
	for qi, q := range graphs[:10] {
		for _, tau := range []int{1, 3, 5, 7} {
			got, _, err := ix.Search(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range got {
				if m.Distance > tau {
					t.Fatalf("q=%d τ=%d: match %+v beyond τ", qi, tau, m)
				}
			}
		}
	}
}

func TestNearestKLargerThanCorpus(t *testing.T) {
	graphs := corpus(4, 41)
	ix := Build(graphs)
	got, _, err := ix.Nearest(graphs[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d results, want the whole corpus", len(got))
	}
}

func TestNearestInvalidK(t *testing.T) {
	ix := Build(corpus(3, 43))
	if _, _, err := ix.Nearest(hypergraph.New(1), 0); err == nil {
		t.Fatal("k=0 must error")
	}
}

func TestIndexAccessors(t *testing.T) {
	graphs := corpus(5, 47)
	ix := Build(graphs)
	if ix.Len() != 5 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.Graph(2) != graphs[2] {
		t.Fatal("Graph accessor broken")
	}
}

// TestIndexEqual: indexes over equal corpora are Equal however they were
// made; a different corpus size, or a same-sized graph with other labels
// or arities, is not.
func TestIndexEqual(t *testing.T) {
	graphs := corpus(6, 5)
	ix := Build(graphs)
	if !ix.Equal(Build(append([]*hypergraph.Hypergraph(nil), graphs...))) || !ix.Equal(ix.Splice(2, 1, graphs[2])) {
		t.Fatal("indexes over the same corpus are not Equal")
	}
	if ix.Equal(Build(graphs[:5])) || Build(nil).Equal(ix) {
		t.Fatal("indexes over corpora of different sizes are Equal")
	}
	a := hypergraph.NewLabeled([]hypergraph.Label{1, 1, 2})
	a.AddEdge(2, 0, 1)
	relabeled := hypergraph.NewLabeled([]hypergraph.Label{1, 3, 2})
	relabeled.AddEdge(2, 0, 1)
	rewired := hypergraph.NewLabeled([]hypergraph.Label{1, 1, 2})
	rewired.AddEdge(2, 0, 1, 2)
	for _, b := range []*hypergraph.Hypergraph{relabeled, rewired} {
		if Build([]*hypergraph.Hypergraph{a}).Equal(Build([]*hypergraph.Hypergraph{b})) {
			t.Fatalf("%v and %v index Equal", a, b)
		}
	}
}
