package core

import "hged/internal/hypergraph"

// HEU implements HGED-HEU (Algorithm 1): it enumerates node mappings by
// depth-first search and scores each with the inaccurate edit cost EDC-INAC,
// returning the minimum instance found. Per Observation 4.1 the result is an
// upper bound on HGED(g, h), not necessarily the exact distance.
//
// Pruning: branches whose accumulated node-mapping cost already meets the
// best instance (or exceeds the threshold) are abandoned; this never changes
// the returned minimum because EDC-INAC is monotone in its node part. The
// expansion budget bounds worst-case O(n!) behaviour; when it is hit the
// best instance so far is returned with Exact=false.
func HEU(g, h *hypergraph.Hypergraph, opts Options) Result {
	p := newPairModel(g, h, opts.costModel())
	N := p.paddedN

	best := 1 << 30
	var bestNodeMap []int
	budget := opts.maxExpansions()
	var expanded int64
	capped := false

	nodeMap := make([]int, N)
	usedTgt := make([]bool, N)

	var rec func(level, accNode int)
	rec = func(level, accNode int) {
		if capped {
			return
		}
		expanded++
		if expanded > budget || opts.cancelled(expanded) {
			capped = true
			return
		}
		if accNode >= best {
			return
		}
		if accNode > opts.tau() {
			return
		}
		if level == N {
			total := p.edcInaccurate(nodeMap)
			if total < best {
				best = total
				bestNodeMap = append(bestNodeMap[:0], nodeMap...)
			}
			return
		}
		for j := 0; j < N; j++ {
			if usedTgt[j] {
				continue
			}
			usedTgt[j] = true
			nodeMap[level] = j
			rec(level+1, accNode+p.nodeCost(level, j))
			usedTgt[j] = false
		}
	}
	rec(0, 0)

	res := Result{Distance: best, Exact: !capped, Expanded: expanded, Cancelled: capped && opts.ctxCancelled()}
	if best > opts.tau() {
		// HEU is a heuristic: exceedance means the heuristic instance
		// exceeds τ, not a proof that HGED does.
		res.Exceeded = true
	}
	if bestNodeMap != nil {
		// Provide a concrete path via the optimal hyperedge assignment for
		// the best node mapping found; its cost is ≤ the reported instance.
		mp := &Mapping{
			SrcN: p.src.n, TgtN: p.tgt.n,
			SrcM: p.src.m, TgtM: p.tgt.m,
			NodeMap: bestNodeMap,
			EdgeMap: p.edgeAssignment(bestNodeMap),
		}
		res.Path = p.extractPath(mp)
	}
	return res
}
