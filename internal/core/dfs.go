package core

import "hged/internal/hypergraph"

// DFS implements HGED-DFS: Algorithm 1 with the inaccurate cost procedure
// replaced by the exact bipartite-graph-based computation of Algorithm 2. It
// enumerates node mappings depth-first and, for each complete node mapping,
// finds the optimal hyperedge mapping by permutation enumeration with
// incumbent pruning (the paper's formulation).
//
// Faithful to the paper, HGED-DFS applies no re-ranking and no lower-bound
// estimation ("it is hard to find some lower bounds while using the DFS
// metric"); it prunes only on the accumulated exact cost against the
// incumbent and the threshold.
func DFS(g, h *hypergraph.Hypergraph, opts Options) Result {
	res, _ := AlgDFS.Within(g, h, opts.Tau(), opts)
	return res
}

// dfs runs HGED-DFS on the compiled pair p. A best total above τ is
// reported as exceedance at the proven lower bound τ+1, without a path;
// otherwise the best mapping's path accompanies the distance.
func dfs(p *pair, opts Options) Result {
	s := searchNodeMaps(p, opts, permutationLeaf)
	res := s.result()
	if tau := opts.Tau(); s.best > tau {
		res.Exceeded = true
		res.Distance = tau + 1 // proven lower bound when Exact
		return res
	}
	if s.best < unbounded { // a leaf recorded a mapping
		res.Path = p.extractPath(p.mapping(s.bestNodeMap, s.bestEdgeMap))
	}
	return res
}

// permutationLeaf prices a complete node mapping by Algorithm 2, under the
// cutoff min(best, τ+1) and the search's expansion cap; its steps count as
// expansions.
func permutationLeaf(s *nodeMapSearch, accNode int) (int, []int, bool) {
	cost, edgeMap, expanded, capped := s.p.edgePermutation(s.nodeMap, min(s.best, s.bound)-accNode, s.expanded, s.budget, s.opts)
	s.expanded = expanded
	if capped {
		s.capped = true
	}
	return accNode + cost, edgeMap, edgeMap != nil
}

// edgePermutation is Algorithm 2: the cheapest hyperedge mapping under the
// complete node mapping nodeMap, by enumerating permutations of hyperedge
// slots with branch-and-bound pruning. It returns the mapping and its cost,
// or (budget, nil) when no mapping costs less than budget, which is ≥ 1.
// Each recursive step is one expansion: the enumeration continues the
// caller's count expanded, returns the new count, and polls opts.Context
// when it crosses a multiple of the polling stride, as the caller does.
// When the count passes maxExpanded (or the context is cancelled) it reports
// capped=true and returns its best-so-far, then only an upper bound.
func (p *pair) edgePermutation(nodeMap []int, budget int, expanded, maxExpanded int64, opts Options) (cost int, perm []int, count int64, capped bool) {
	M := p.paddedM
	if M == 0 {
		return 0, []int{}, expanded, false
	}
	best := budget
	var bestPerm []int
	cur := make([]int, M)
	usedTgt := make([]bool, M)
	var rec func(e, acc int)
	rec = func(e, acc int) {
		if capped {
			return
		}
		expanded++
		if expanded > maxExpanded || opts.cancelled(expanded) {
			capped = true
			return
		}
		if acc >= best {
			return
		}
		if e == M {
			best = acc
			bestPerm = append(bestPerm[:0], cur...)
			return
		}
		for f := 0; f < M; f++ {
			if usedTgt[f] {
				continue
			}
			usedTgt[f] = true
			cur[e] = f
			rec(e+1, acc+p.edgeCost(e, f, nodeMap))
			usedTgt[f] = false
		}
	}
	rec(0, 0)
	if bestPerm == nil {
		return budget, nil, expanded, capped
	}
	return best, bestPerm, expanded, capped
}
