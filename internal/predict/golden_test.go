package predict

import (
	"fmt"
	"hash/fnv"
	"testing"

	"hged/internal/gen"
)

// TestHEPWorkCountersGolden pins sequential HEP-BFS on planted graphs to
// the predictions and work counters of a reference run: an optimisation of
// the σ hot path must return the same hyperedges after the same seeds,
// components, σ computations, memo hits and search expansions. Predictions
// are pinned by count and an FNV-1a digest of their "nodes@seed" rendering.
func TestHEPWorkCountersGolden(t *testing.T) {
	cases := []struct {
		seed        int64
		lambda, tau int
		preds       int
		digest      uint64
		stats       Stats
	}{
		{11, 2, 4, 30, 0xaaa9314f6cd87929, Stats{Seeds: 118, Components: 115, PairsComputed: 899, PairsCached: 3005, Expanded: 10563}},
		{11, 3, 5, 36, 0xfc4a270f8af89f3e, Stats{Seeds: 118, Components: 115, PairsComputed: 886, PairsCached: 3141, Expanded: 10902}},
		{5, 3, 5, 35, 0xdb71bf0ebe0ef464, Stats{Seeds: 117, Components: 111, PairsComputed: 1092, PairsCached: 3531, Expanded: 27891}},
	}
	for _, c := range cases {
		name := fmt.Sprintf("seed%d-l%d-t%d", c.seed, c.lambda, c.tau)
		g, _, err := gen.PlantedCommunities(gen.Config{Nodes: 40, Edges: 80, MeanEdgeSize: 3, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(g, Options{Lambda: c.lambda, Tau: c.tau, MaxExpansions: 5000, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		preds := p.Run()
		h := fnv.New64a()
		for _, pr := range preds {
			fmt.Fprintf(h, "%v@%d ", pr.Nodes, pr.Seed)
		}
		t.Logf("%s: %d predictions, digest %#x, stats %+v", name, len(preds), h.Sum64(), p.Stats())
		if len(preds) != c.preds || h.Sum64() != c.digest {
			t.Errorf("%s: %d predictions with digest %#x, want %d with %#x", name, len(preds), h.Sum64(), c.preds, c.digest)
		}
		if got := p.Stats(); got != c.stats {
			t.Errorf("%s: stats %+v, want %+v", name, got, c.stats)
		}
	}
}
