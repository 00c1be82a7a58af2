package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"hged/internal/dataset"
	"hged/internal/hypergraph"
)

// moEgoPairs returns the ego networks of n hyperedge-adjacent node pairs of
// the MO replica, drawn from a fixed seed as hgedd's /distance workload
// draws them: a uniformly chosen hyperedge with at least two members, then
// two distinct members of it.
func moEgoPairs(tb testing.TB, n int) [][2]*hypergraph.Hypergraph {
	spec, err := dataset.Lookup("MO")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := spec.Replica(0)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]*hypergraph.Hypergraph, 0, n)
	for len(pairs) < n {
		e := g.Edge(hypergraph.EdgeID(rng.Intn(g.NumEdges())))
		if len(e.Nodes) < 2 {
			continue
		}
		i := rng.Intn(len(e.Nodes))
		j := rng.Intn(len(e.Nodes) - 1)
		if j >= i {
			j++
		}
		pairs = append(pairs, [2]*hypergraph.Hypergraph{g.Ego(e.Nodes[i]), g.Ego(e.Nodes[j])})
	}
	return pairs
}

// TestBFSGolden pins HGED-BFS (Algorithm 3) to the results of a reference
// run: a change to its set-up, state restore, child pricing or queue must
// return the same distances, flags, paths and search effort. Seeded random
// pairs of at most 6 nodes run through Within at τ ∈ {0, 2, 5, unbounded}
// with a cap of 30 and the default cap, under unit and weighted costs;
// denser 7-node pairs also run each ablation (no re-ranking, no upper
// bound, no lower bound); the ego pairs of 400 hyperedge-adjacent MO
// replica nodes run at τ = 10 with the 20,000 cap hgedd's /distance
// requests carry (most are refuted at the root, some end on the Strategy-2
// incumbent, one reaches the cap). Results are pinned by
// count, total Expanded and an FNV-1a digest of each result's
// Distance/Exact/Exceeded/Cancelled/Expanded and rendered path.
func TestBFSGolden(t *testing.T) {
	weighted := &CostModel{Node: 2, Edge: 3, Incidence: 1, NodeRelabel: 3, EdgeRelabel: 2}
	type solve struct {
		tau  int
		opts Options
	}
	var random []solve
	for _, tau := range []int{0, 2, 5, unbounded} {
		for _, maxExp := range []int64{30, 0} {
			for _, costs := range []*CostModel{nil, weighted} {
				random = append(random, solve{tau, Options{MaxExpansions: maxExp, Costs: costs}})
			}
		}
	}
	var ablations []solve
	for _, tau := range []int{4, unbounded} {
		for _, opts := range []Options{{}, {DisableRerank: true}, {DisableUpperBound: true}, {DisableLowerBound: true}, {Costs: weighted}} {
			ablations = append(ablations, solve{tau, opts})
		}
	}

	rng := rand.New(rand.NewSource(32))
	small := make([][2]*hypergraph.Hypergraph, 40)
	for i := range small {
		small[i] = [2]*hypergraph.Hypergraph{randomHypergraph(rng, 6, 5, 3), randomHypergraph(rng, 6, 5, 3)}
	}
	var dense [][2]*hypergraph.Hypergraph
	for s := int64(0); s < 4; s++ {
		dense = append(dense, [2]*hypergraph.Hypergraph{denseGraph(7, 5, 2*s+1), denseGraph(6+int(s%2), 4+int(s%3), 2*s+2)})
	}
	runs := []struct {
		name   string
		pairs  [][2]*hypergraph.Hypergraph
		solves []solve
	}{
		{"random", small, random},
		{"dense", dense, ablations},
		{"mo", moEgoPairs(t, 400), []solve{{10, Options{MaxExpansions: 20_000}}}},
	}
	want := map[string]struct {
		results  int
		expanded int64
		digest   uint64
	}{
		"random": {640, 8287, 0x53cef290ac4cbee7},
		"dense":  {40, 644452, 0x41db71fa2c691100},
		"mo":     {400, 20001, 0x162eac2f54279e63},
	}
	for _, run := range runs {
		h := fnv.New64a()
		results, expanded := 0, int64(0)
		for _, pr := range run.pairs {
			for _, s := range run.solves {
				res, _ := Within(pr[0], pr[1], s.tau, s.opts)
				results++
				expanded += res.Expanded
				fmt.Fprintf(h, "%d %t %t %t %d", res.Distance, res.Exact, res.Exceeded, res.Cancelled, res.Expanded)
				if res.Path != nil {
					fmt.Fprintf(h, " %v", *res.Path)
				}
				h.Write([]byte{'\n'})
			}
		}
		t.Logf("%s: %d results, %d expanded, digest %#x", run.name, results, expanded, h.Sum64())
		w := want[run.name]
		if results != w.results || expanded != w.expanded || h.Sum64() != w.digest {
			t.Errorf("%s: %d results, %d expanded, digest %#x; want %d, %d, %#x",
				run.name, results, expanded, h.Sum64(), w.results, w.expanded, w.digest)
		}
	}
}
