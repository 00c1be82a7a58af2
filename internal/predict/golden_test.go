package predict

import (
	"fmt"
	"hash/fnv"
	"testing"

	"hged/internal/gen"
)

// TestHEPWorkCountersGolden pins sequential HEP on planted graphs, with
// each of the three solvers, to the predictions and work counters of a
// reference run: an optimisation of the σ hot path must return the same
// hyperedges after the same seeds, components, σ computations, memo hits
// and search expansions. Predictions are pinned by count and an FNV-1a
// digest of their "nodes@seed" rendering.
func TestHEPWorkCountersGolden(t *testing.T) {
	cases := []struct {
		alg         Algorithm
		seed        int64
		lambda, tau int
		preds       int
		digest      uint64
		stats       Stats
	}{
		{AlgBFS, 11, 2, 4, 30, 0xaaa9314f6cd87929, Stats{Seeds: 118, Components: 115, PairsComputed: 899, PairsCached: 3005, Expanded: 10563}},
		{AlgBFS, 11, 3, 5, 36, 0xfc4a270f8af89f3e, Stats{Seeds: 118, Components: 115, PairsComputed: 886, PairsCached: 3141, Expanded: 10902}},
		{AlgBFS, 5, 3, 5, 35, 0xdb71bf0ebe0ef464, Stats{Seeds: 117, Components: 111, PairsComputed: 1092, PairsCached: 3531, Expanded: 27891}},
		{AlgDFS, 11, 2, 4, 30, 0xaaa9314f6cd87929, Stats{Seeds: 118, Components: 115, PairsComputed: 898, PairsCached: 2996, Expanded: 775520}},
		{AlgDFS, 5, 3, 5, 35, 0x5d4feeb5f18d0fe7, Stats{Seeds: 117, Components: 111, PairsComputed: 1084, PairsCached: 3504, Expanded: 1112262}},
		{AlgHEU, 11, 2, 4, 28, 0x9d92eea83d46ee6a, Stats{Seeds: 118, Components: 115, PairsComputed: 904, PairsCached: 2877, Expanded: 352495}},
		{AlgHEU, 5, 3, 5, 35, 0xd4099034ff446ef2, Stats{Seeds: 117, Components: 111, PairsComputed: 1089, PairsCached: 3469, Expanded: 453457}},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v/seed%d-l%d-t%d", c.alg, c.seed, c.lambda, c.tau)
		g, _, err := gen.PlantedCommunities(gen.Config{Nodes: 40, Edges: 80, MeanEdgeSize: 3, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(g, Options{Lambda: c.lambda, Tau: c.tau, Algorithm: c.alg, MaxExpansions: 5000, Parallelism: 1})
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
