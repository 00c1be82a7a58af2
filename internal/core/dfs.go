package core

import "hged/internal/hypergraph"

// DFS implements HGED-DFS: Algorithm 1 with the inaccurate cost procedure
// replaced by the exact bipartite-graph-based computation of Algorithm 2. It
// enumerates node mappings depth-first and, for each complete node mapping,
// finds the optimal hyperedge mapping — by permutation enumeration with
// incumbent pruning (the paper's formulation), or by the Hungarian solver
// when Options.UseHungarianEDC is set (the E10 ablation; both are exact).
//
// Faithful to the paper, HGED-DFS applies no re-ranking and no lower-bound
// estimation ("it is hard to find some lower bounds while using the DFS
// metric"); it prunes only on the accumulated exact cost against the
// incumbent and the threshold.
func DFS(g, h *hypergraph.Hypergraph, opts Options) Result {
	p := newPairModel(g, h, opts.costModel())
	N := p.paddedN

	best := 1 << 30
	bound := opts.tau() + 1 // search only for completions ≤ τ
	var bestMapping *Mapping
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
		if accNode >= min(best, bound) {
			return
		}
		if level == N {
			edgeBudget := min(best, bound) - accNode
			edgeCost, edgeMap, edgeCapped := p.edgeCostPermutationMapped(nodeMap, edgeBudget, budget-expanded, &expanded, opts)
			if edgeCapped {
				capped = true
			}
			if edgeMap == nil {
				return // no hyperedge mapping within budget
			}
			total := accNode + edgeCost
			if total < best {
				best = total
				bestMapping = &Mapping{
					SrcN: p.src.n, TgtN: p.tgt.n,
					SrcM: p.src.m, TgtM: p.tgt.m,
					NodeMap: append([]int(nil), nodeMap...),
					EdgeMap: edgeMap,
				}
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
	if bestMapping != nil {
		res.Path = p.extractPath(bestMapping)
	}
	if best > opts.tau() {
		res.Exceeded = true
		res.Distance = opts.tau() + 1 // proven lower bound when Exact
	}
	return res
}

// edgeCostPermutationMapped is edgeCostPermutation returning the argmin edge
// mapping as well; it returns (budget, nil) when no mapping beats the
// budget, which is ≥ 1. The enumeration spends at most maxSteps recursive
// steps, adding them to *steps; when it runs out (or opts.Context is
// cancelled) it reports capped=true and returns its best-so-far (which is
// then only an upper bound). With UseHungarianEDC handled by the caller
// this remains the Algorithm-2 enumeration.
func (p *pair) edgeCostPermutationMapped(nodeMap []int, budget int, maxSteps int64, steps *int64, opts Options) (cost int, perm []int, capped bool) {
	M := p.paddedM
	if M == 0 {
		return 0, []int{}, false
	}
	best := budget
	var bestPerm []int
	cur := make([]int, M)
	usedTgt := make([]bool, M)
	var spent int64
	var rec func(e, acc int)
	rec = func(e, acc int) {
		if capped {
			return
		}
		spent++
		if spent > maxSteps || opts.cancelled(spent) {
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
	*steps += spent
	if bestPerm == nil {
		return budget, nil, capped
	}
	return best, bestPerm, capped
}

// DFSHungarian is DFS with the per-node-mapping edge cost computed by the
// Hungarian solver; exposed for the E10 ablation benchmarks.
func DFSHungarian(g, h *hypergraph.Hypergraph, opts Options) Result {
	opts.UseHungarianEDC = true
	return dfsHungarian(g, h, opts)
}

func dfsHungarian(g, h *hypergraph.Hypergraph, opts Options) Result {
	p := newPairModel(g, h, opts.costModel())
	N := p.paddedN

	best := 1 << 30
	bound := opts.tau() + 1
	var bestMapping *Mapping
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
		if accNode >= min(best, bound) {
			return
		}
		if level == N {
			edgeMap := p.edgeAssignment(nodeMap)
			total := accNode
			for e, f := range edgeMap {
				total += p.edgeCost(e, f, nodeMap)
			}
			if total < best && total < bound {
				best = total
				bestMapping = &Mapping{
					SrcN: p.src.n, TgtN: p.tgt.n,
					SrcM: p.src.m, TgtM: p.tgt.m,
					NodeMap: append([]int(nil), nodeMap...),
					EdgeMap: edgeMap,
				}
			} else if total < best {
				best = total
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
	if bestMapping != nil {
		res.Path = p.extractPath(bestMapping)
	}
	if best > opts.tau() {
		res.Exceeded = true
		res.Distance = opts.tau() + 1
	}
	return res
}
