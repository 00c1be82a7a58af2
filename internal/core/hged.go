package core

import "hged/internal/hypergraph"

// Distance computes the exact hypergraph edit distance HGED(g, h)
// (Definition 3) using HGED-BFS with all pruning strategies enabled.
func Distance(g, h *hypergraph.Hypergraph) int {
	return BFS(g, h, Options{}).Distance
}

// DistanceWithin is Within at the default expansion cap. It returns the
// distance and true when HGED(g, h) ≤ tau — the exact distance, or when
// the cap cuts the search short an upper bound ≤ tau — and (0, false)
// otherwise.
func DistanceWithin(g, h *hypergraph.Hypergraph, tau int) (int, bool) {
	if res, ok := Within(g, h, tau, Options{}); ok {
		return res.Distance, true
	}
	return 0, false
}

// DistanceWithPath computes HGED(g, h) and an optimal hypergraph edit path
// realizing it (Section IV-D).
func DistanceWithPath(g, h *hypergraph.Hypergraph) (int, *Path) {
	res := BFS(g, h, Options{})
	return res.Distance, res.Path
}

// NodeDistance computes the node-similar distance σ(u, v) of Problem 1: the
// HGED between the ego networks of u and v in host graph g.
func NodeDistance(g *hypergraph.Hypergraph, u, v hypergraph.NodeID, opts Options) Result {
	return BFS(g.Ego(u), g.Ego(v), opts)
}
