package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"hged/internal/hypergraph"
)

// TestEnumerationSolversGolden pins HGED-DFS and HGED-HEU — the two
// solvers built on Algorithm 1's node-mapping enumeration — to
// the results of a reference run: a change to the enumeration or to a leaf
// procedure must return the same distances, flags, paths and search effort.
// Every solver runs on seeded random pairs of at most 5 nodes under
// thresholds 0 (unbounded), 2 and 5, the default cap and a cap of 40, unit
// and weighted costs, and a cancelled context; pairs of 7 nodes, whose
// enumeration outlasts one cancellation polling stride, run the cancelled
// context too. Results are pinned by count, total Expanded and an FNV-1a
// digest of each result's Distance/Exact/Exceeded/Cancelled/Expanded and
// rendered path.
func TestEnumerationSolversGolden(t *testing.T) {
	weighted := &CostModel{Node: 2, Edge: 3, Incidence: 1, NodeRelabel: 3, EdgeRelabel: 2}
	var variants []Options
	for _, tau := range []int{0, 2, 5} {
		for _, maxExp := range []int64{0, 40} {
			for _, costs := range []*CostModel{nil, weighted} {
				variants = append(variants, Options{Threshold: tau, MaxExpansions: maxExp, Costs: costs})
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := []Options{{Context: ctx}, {Context: ctx, Threshold: 5, Costs: weighted}}
	variants = append(variants, cancelled...)

	rng := rand.New(rand.NewSource(43))
	small := make([][2]*hypergraph.Hypergraph, 30)
	for i := range small {
		small[i] = [2]*hypergraph.Hypergraph{randomHypergraph(rng, 5, 4, 3), randomHypergraph(rng, 5, 4, 3)}
	}
	dense := [][2]*hypergraph.Hypergraph{
		{denseGraph(7, 5, 1), denseGraph(7, 5, 2)},
		{denseGraph(7, 4, 3), denseGraph(7, 5, 4)},
	}
	runs := []struct {
		pairs    [][2]*hypergraph.Hypergraph
		variants []Options
	}{{small, variants}, {dense, cancelled}}

	cases := []struct {
		name     string
		solve    func(g, h *hypergraph.Hypergraph, opts Options) Result
		results  int
		expanded int64
		digest   uint64
	}{
		{"DFS", DFS, 424, 69505, 0x76d96cd6429cd540},
		{"HEU", HEU, 424, 19039, 0x49abf0b239213f90},
	}
	for _, c := range cases {
		h := fnv.New64a()
		results, expanded := 0, int64(0)
		for _, run := range runs {
			for _, pr := range run.pairs {
				for _, opts := range run.variants {
					res := c.solve(pr[0], pr[1], opts)
					results++
					expanded += res.Expanded
					fmt.Fprintf(h, "%d %t %t %t %d", res.Distance, res.Exact, res.Exceeded, res.Cancelled, res.Expanded)
					if res.Path != nil {
						fmt.Fprintf(h, " %v", *res.Path)
					}
					h.Write([]byte{'\n'})
				}
			}
		}
		t.Logf("%s: %d results, %d expanded, digest %#x", c.name, results, expanded, h.Sum64())
		if results != c.results || expanded != c.expanded || h.Sum64() != c.digest {
			t.Errorf("%s: %d results, %d expanded, digest %#x; want %d, %d, %#x",
				c.name, results, expanded, h.Sum64(), c.results, c.expanded, c.digest)
		}
	}
}
