package core

import "hged/internal/hypergraph"

// nodeMapSearch is Algorithm 1's depth-first enumeration of complete padded
// node mappings, shared by HGED-HEU, HGED-DFS and DFS-Hungarian: the three
// differ only in the leaf procedure that prices a complete node mapping. The
// search owns the expansion count, the cap and context polls, and the prune:
// a branch whose accumulated node cost reaches min(best, τ+1) is abandoned,
// since a leaf's total is at least its node cost.
type nodeMapSearch struct {
	p        *pair
	opts     Options
	budget   int64 // expansion cap
	expanded int64
	capped   bool // cap hit or context cancelled
	bound    int  // τ+1: only totals below it are within the threshold
	best     int  // cheapest leaf total so far; unbounded before the first
	// bestNodeMap and bestEdgeMap realise best; bestEdgeMap is whatever the
	// leaf returned.
	bestNodeMap, bestEdgeMap []int
	nodeMap                  []int
	usedTgt                  []bool
	leaf                     leafCost
}

// leafCost prices the complete node mapping s.nodeMap, whose node cost is
// accNode. It returns the mapping's total, the hyperedge mapping realising
// it (nil when the caller derives one later), and ok=false when it found
// none (Algorithm 2 looks only below min(s.best, s.bound)). The search keeps
// a total only when it beats s.best. A leaf may spend expansions and set
// s.capped.
type leafCost func(s *nodeMapSearch, accNode int) (total int, edgeMap []int, ok bool)

// searchNodeMaps runs the enumeration on (g, h) with the given leaf
// procedure and returns the finished search for result assembly.
func searchNodeMaps(g, h *hypergraph.Hypergraph, opts Options, leaf leafCost) *nodeMapSearch {
	p := newPairModel(g, h, opts.costModel())
	s := &nodeMapSearch{
		p:       p,
		opts:    opts,
		budget:  opts.maxExpansions(),
		bound:   opts.Tau() + 1,
		best:    unbounded,
		nodeMap: make([]int, p.paddedN),
		usedTgt: make([]bool, p.paddedN),
		leaf:    leaf,
	}
	s.rec(0, 0)
	return s
}

func (s *nodeMapSearch) rec(level, accNode int) {
	if s.capped {
		return
	}
	s.expanded++
	if s.expanded > s.budget || s.opts.cancelled(s.expanded) {
		s.capped = true
		return
	}
	if accNode >= min(s.best, s.bound) {
		return
	}
	if level == len(s.nodeMap) {
		if total, edgeMap, ok := s.leaf(s, accNode); ok && total < s.best {
			s.best = total
			s.bestNodeMap = append(s.bestNodeMap[:0], s.nodeMap...)
			s.bestEdgeMap = edgeMap
		}
		return
	}
	for j, used := range s.usedTgt {
		if used {
			continue
		}
		s.usedTgt[j] = true
		s.nodeMap[level] = j
		s.rec(level+1, accNode+s.p.nodeCost(level, j))
		s.usedTgt[j] = false
	}
}

// result is the part of the Result every enumeration solver reports alike.
func (s *nodeMapSearch) result() Result {
	return Result{Distance: s.best, Exact: !s.capped, Expanded: s.expanded, Cancelled: s.capped && s.opts.ctxCancelled()}
}

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
	s := searchNodeMaps(g, h, opts, func(s *nodeMapSearch, _ int) (int, []int, bool) {
		return s.p.edcInaccurate(s.nodeMap), nil, true
	})
	res := s.result()
	if s.best > opts.Tau() {
		// HEU is a heuristic: exceedance means the heuristic instance
		// exceeds τ, not a proof that HGED does.
		res.Exceeded = true
	}
	if s.best < unbounded { // a leaf recorded a mapping
		// Provide a concrete path via the optimal hyperedge assignment for
		// the best node mapping found; its cost is ≤ the reported instance.
		res.Path = s.p.extractPath(s.p.mapping(s.bestNodeMap, s.p.edgeAssignment(s.bestNodeMap)))
	}
	return res
}
