package core

import (
	"context"

	"hged/internal/hypergraph"
)

// NotWithin is the Matrix entry for pairs whose distance provably exceeds
// the threshold.
const NotWithin = -1

// Matrix computes all pairwise HGED values among the given hypergraphs,
// optionally in parallel. The result is symmetric with a zero diagonal.
// When opts carries a threshold τ > 0, entries not within it (Result.Within)
// are NotWithin, so a capped entry is NotWithin unless its upper bound ≤ τ.
// The pairs fan out through ForEach over workers, each pair a pooled BFS;
// workers ≤ 1 runs sequentially, and results are identical either way.
func Matrix(graphs []*hypergraph.Hypergraph, opts Options, workers int) [][]int {
	n := len(graphs)
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, n)
	}
	type job struct{ i, j int }
	var jobs []job
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			jobs = append(jobs, job{i, j})
		}
	}
	ForEach(context.Background(), len(jobs), workers, func(k int) {
		jb := jobs[k]
		res := BFS(graphs[jb.i], graphs[jb.j], opts)
		d := res.Distance
		if opts.Threshold > 0 && !res.Within(opts.Threshold) {
			d = NotWithin
		}
		out[jb.i][jb.j] = d
		out[jb.j][jb.i] = d
	})
	return out
}

// NodeMatrix computes the pairwise node-similar distances σ(u, v) among the
// given nodes of one host graph (Problem 1, batched): the ego networks are
// extracted once and compared pairwise.
func NodeMatrix(g *hypergraph.Hypergraph, nodes []hypergraph.NodeID, opts Options, workers int) [][]int {
	egos := make([]*hypergraph.Hypergraph, len(nodes))
	for i, v := range nodes {
		egos[i] = g.Ego(v)
	}
	return Matrix(egos, opts, workers)
}
