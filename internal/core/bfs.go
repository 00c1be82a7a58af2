package core

import (
	"sort"

	"hged/internal/hypergraph"
)

// BFS implements HGED-BFS (Algorithm 3): a best-first branch-and-bound
// search over entity mappings with the paper's three strategies.
//
//   - Strategy 1 re-ranks the source entities: nodes before hyperedges,
//     higher degree first, equal labels grouped, higher cardinality first.
//   - Strategy 2 seeds the search with an upper bound computed from greedy
//     and sampled complete mappings (and the threshold τ, when set).
//   - Strategy 3 prunes with admissible lower bounds: the label-based bound
//     Ψ (Definition 5) plus the hyperedge-based cardinality bound
//     (Definition 6) over the yet-unmapped suffix.
//
// States assign the k-th re-ranked source entity to an unused target slot;
// all node levels precede all edge levels, so edge-mapping costs are exact
// when incurred. The suffix bounds are consistent (each assignment's cost
// dominates the bound decrease), so the first complete mapping popped is
// optimal. The search is exact; with a threshold τ (see Within) it
// may stop early with Exceeded=true once HGED > τ is proven.
//
// Label multisets are tracked as dense arrays over the pair's label
// dictionary, so per-state bound maintenance is allocation-free: Ψ updates
// in O(1) per candidate from the popped state's base quantities, and the
// cardinality bound recomputes in O(M) over sorted remainders.
//
// Search states live in a per-search slab and reference their parents by
// index, so pushing a state never allocates once the slab is warm; BFS is
// Within at the threshold of opts, so it runs on a pooled solver whose
// slab, priority queue and scratch persist across calls.
func BFS(g, h *hypergraph.Hypergraph, opts Options) Result {
	res, _ := Within(g, h, opts.Tau(), opts)
	return res
}

// state is a search node: the assignment made at the parent's level to reach
// it, the exact accumulated cost g, and the admissible estimate f = g + h.
// States are slab-allocated; parent is a slab index (noParent for the root).
type state struct {
	parent int32
	choice int32
	level  int32
	g      int32
	f      int32
}

const noParent = int32(-1)

// bfsSearch holds the per-run state of HGED-BFS. The zero value is ready;
// init prepares a run and retains all buffers for the next one.
type bfsSearch struct {
	p    *pair
	N, M int

	nodeOrder, edgeOrder []int

	// Source suffix label counts and cardinality lists per level (immutable
	// after init). Counts are flat: level k of the node suffixes occupies
	// srcNodeCnt[k*numNodeLab : (k+1)*numNodeLab], and likewise for edges.
	srcNodeCnt   []int32 // (N+1) × numNodeLab
	srcNodeSize  []int
	srcEdgeCnt   []int32 // (M+1) × numEdgeLab
	srcEdgeSize  []int
	srcEdgeCards [][]int // ascending; slices into cardArena
	cardArena    []int

	useLB bool

	// Per-pop scratch (reused across pops).
	usedNodes, usedEdges []bool
	nodeMapBuf           []int
	tgtNodeCnt           []int32
	tgtNodeSize          int
	tgtEdgeCnt           []int32
	tgtEdgeSize          int
	tgtEdgeCards         []int // ascending
	cardScratch          []int

	// Slab of all created states plus the priority queue of slab indices.
	slab    []state
	heapIdx []int32
}

func (s *bfsSearch) srcNodeCntAt(k int) []int32 {
	w := s.p.numNodeLab
	return s.srcNodeCnt[k*w : (k+1)*w]
}

func (s *bfsSearch) srcEdgeCntAt(k int) []int32 {
	w := s.p.numEdgeLab
	return s.srcEdgeCnt[k*w : (k+1)*w]
}

// init prepares the search for p, reusing every retained buffer.
func (s *bfsSearch) init(p *pair, opts Options) {
	N, M := p.paddedN, p.paddedM
	s.p, s.N, s.M = p, N, M
	s.useLB = !opts.DisableLowerBound
	s.nodeOrder = growInts(s.nodeOrder, N)
	rerankNodes(s.nodeOrder, p.src, opts.DisableRerank)
	s.edgeOrder = growInts(s.edgeOrder, M)
	rerankEdges(s.edgeOrder, p.src, opts.DisableRerank)
	s.usedNodes = growBools(s.usedNodes, N)
	s.usedEdges = growBools(s.usedEdges, M)
	s.nodeMapBuf = growInts(s.nodeMapBuf, N)
	s.tgtNodeCnt = growInt32s(s.tgtNodeCnt, p.numNodeLab)
	s.tgtEdgeCnt = growInt32s(s.tgtEdgeCnt, p.numEdgeLab)
	s.slab = s.slab[:0]
	s.heapIdx = s.heapIdx[:0]

	// Source node-label suffixes.
	s.srcNodeCnt = growInt32s(s.srcNodeCnt, (N+1)*p.numNodeLab)
	s.srcNodeSize = growInts(s.srcNodeSize, N+1)
	cur := s.srcNodeCntAt(0)
	for i := range cur {
		cur[i] = 0
	}
	for _, l := range p.srcNodeLab {
		cur[l]++
	}
	size := p.src.n
	s.srcNodeSize[0] = size
	for k := 0; k < N; k++ {
		next := s.srcNodeCntAt(k + 1)
		copy(next, cur)
		if v := s.nodeOrder[k]; v < p.src.n {
			next[p.srcNodeLab[v]]--
			size--
		}
		s.srcNodeSize[k+1] = size
		cur = next
	}
	// Source edge-label and cardinality suffixes.
	s.srcEdgeCnt = growInt32s(s.srcEdgeCnt, (M+1)*p.numEdgeLab)
	s.srcEdgeSize = growInts(s.srcEdgeSize, M+1)
	ecur := s.srcEdgeCntAt(0)
	for i := range ecur {
		ecur[i] = 0
	}
	for _, l := range p.srcEdgeLab {
		ecur[l]++
	}
	esize := p.src.m
	s.srcEdgeSize[0] = esize
	// Cardinality suffix lists: level k+1 is level k with the k-th ranked
	// real edge's cardinality removed; each level is carved from cardArena.
	if cap(s.srcEdgeCards) < M+1 {
		s.srcEdgeCards = make([][]int, M+1)
	} else {
		s.srcEdgeCards = s.srcEdgeCards[:M+1]
	}
	arenaNeed := 0
	for k, rem := 0, p.src.m; k <= M; k++ {
		arenaNeed += rem
		if k < M && s.edgeOrder[k] < p.src.m {
			rem--
		}
	}
	s.cardArena = growInts(s.cardArena, arenaNeed)
	arena := s.cardArena
	cards := arena[:p.src.m]
	arena = arena[p.src.m:]
	copy(cards, p.src.cards)
	sort.Ints(cards)
	s.srcEdgeCards[0] = cards
	for k := 0; k < M; k++ {
		next := cards
		if e := s.edgeOrder[k]; e < p.src.m {
			ecur2 := s.srcEdgeCntAt(k + 1)
			copy(ecur2, ecur)
			ecur2[p.srcEdgeLab[e]]--
			esize--
			ecur = ecur2
			next = arena[:len(cards)-1]
			arena = arena[len(cards)-1:]
			copyWithoutSorted(next, cards, p.src.cards[e])
		} else {
			ecur2 := s.srcEdgeCntAt(k + 1)
			copy(ecur2, ecur)
			ecur = ecur2
			next = arena[:len(cards)]
			arena = arena[len(cards):]
			copy(next, cards)
		}
		s.srcEdgeSize[k+1] = esize
		s.srcEdgeCards[k+1] = next
		cards = next
	}
}

// copyWithoutSorted copies the ascending list src into dst (len(src)-1)
// omitting one occurrence of v; if v is absent the last element is dropped
// (cannot happen for well-formed inputs).
func copyWithoutSorted(dst, src []int, v int) {
	i := sort.SearchInts(src, v)
	if i >= len(src) || src[i] != v {
		copy(dst, src[:len(src)-1])
		return
	}
	copy(dst, src[:i])
	copy(dst[i:], src[i+1:])
}

// restore rebuilds the scratch state (used slots, node-map prefix, target
// remaining counts) for the popped search node by walking its parent chain.
func (s *bfsSearch) restore(st int32) {
	p := s.p
	for i := range s.usedNodes {
		s.usedNodes[i] = false
	}
	for i := range s.usedEdges {
		s.usedEdges[i] = false
	}
	for i := range s.tgtNodeCnt {
		s.tgtNodeCnt[i] = 0
	}
	for _, l := range p.tgtNodeLab {
		s.tgtNodeCnt[l]++
	}
	s.tgtNodeSize = p.tgt.n
	for i := range s.tgtEdgeCnt {
		s.tgtEdgeCnt[i] = 0
	}
	for _, l := range p.tgtEdgeLab {
		s.tgtEdgeCnt[l]++
	}
	s.tgtEdgeSize = p.tgt.m
	s.tgtEdgeCards = append(s.tgtEdgeCards[:0], p.tgt.cards...)
	sort.Ints(s.tgtEdgeCards)

	for cur := st; s.slab[cur].parent != noParent; cur = s.slab[cur].parent {
		par := &s.slab[s.slab[cur].parent]
		lvl := int(par.level)
		choice := int(s.slab[cur].choice)
		if lvl < s.N {
			s.usedNodes[choice] = true
			s.nodeMapBuf[s.nodeOrder[lvl]] = choice
			if choice < p.tgt.n {
				s.tgtNodeCnt[p.tgtNodeLab[choice]]--
				s.tgtNodeSize--
			}
		} else {
			s.usedEdges[choice] = true
			if choice < p.tgt.m {
				s.tgtEdgeCnt[p.tgtEdgeLab[choice]]--
				s.tgtEdgeSize--
				s.tgtEdgeCards = removeSortedIntInPlace(s.tgtEdgeCards, p.tgt.cards[choice])
			}
		}
	}
}

func removeSortedIntInPlace(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		copy(xs[i:], xs[i+1:])
		return xs[:len(xs)-1]
	}
	return xs
}

func interSize(a, b []int32) int {
	n := 0
	for i, x := range a {
		y := b[i]
		if x < y {
			n += int(x)
		} else {
			n += int(y)
		}
	}
	return n
}

// run searches the prepared pair at threshold tau (see Within).
func (s *bfsSearch) run(opts Options, tau int) Result {
	tau = min(tau, unbounded) // tau+1 must not overflow
	p := s.p
	N, M := s.N, s.M
	total := N + M

	// Strategy 3 at the root runs before Strategy 2: it is cheaper, and
	// when it alone proves HGED > τ the sampled upper bound cannot change
	// the answer — every incumbent is ≥ rootLB > τ, so the search below
	// would push nothing and report exceedance with no expansions.
	rootLB := 0
	if s.useLB {
		rootLB = p.rootLowerBound()
	}
	if rootLB > tau {
		return Result{Distance: tau + 1, Exceeded: true, Exact: true}
	}

	// Strategy 2: initial incumbent.
	incumbent := 1 << 30
	var incumbentMap *Mapping
	if !opts.DisableUpperBound {
		incumbent, incumbentMap = p.upperBound(upperBoundSamples, upperBoundSeed)
	}
	bound := incumbent
	if tau+1 < bound {
		bound = tau + 1
	}

	if rootLB < bound {
		s.pushState(state{parent: noParent, level: 0, g: 0, f: int32(rootLB)})
	}

	budget := opts.maxExpansions()
	var expanded int64
	capped := false
	goal := noParent

	for len(s.heapIdx) > 0 {
		st := s.popState()
		if int(s.slab[st].f) >= bound {
			continue // stale against a tightened incumbent
		}
		expanded++
		if expanded > budget || opts.cancelled(expanded) {
			capped = true
			break
		}
		if int(s.slab[st].level) == total {
			goal = st
			break
		}
		s.restore(st)

		lvl := int(s.slab[st].level)
		if lvl < N {
			s.expandNodeLevel(st, lvl, bound)
		} else {
			s.expandEdgeLevel(st, lvl, bound)
		}
	}

	res := Result{Expanded: expanded, Exact: !capped, Cancelled: capped && opts.ctxCancelled()}
	switch {
	case goal != noParent:
		res.Distance = int(s.slab[goal].g)
		res.Path = p.extractPath(s.reconstructMapping(goal))
	case capped:
		// Budget exhausted: fall back to the best known upper bound.
		if incumbentMap == nil {
			incumbent, incumbentMap = p.upperBound(upperBoundSamples, upperBoundSeed)
		}
		res.Distance = incumbent
		res.Path = p.extractPath(incumbentMap)
		return res
	default:
		// Queue exhausted below bound: the incumbent (or exceedance) is
		// the answer.
		res.Distance = incumbent
		if incumbentMap != nil && incumbent < 1<<30 {
			res.Path = p.extractPath(incumbentMap)
		}
	}
	if res.Distance > tau {
		res.Exceeded = true
		res.Distance = tau + 1 // proven lower bound
		res.Path = nil
	}
	return res
}

// expandNodeLevel pushes the children of a node-level state. The hyperedge
// part of the suffix bound is constant across all node levels (no hyperedge
// is mapped yet), and the node-label Ψ updates in O(1) per candidate.
func (s *bfsSearch) expandNodeLevel(st int32, lvl, bound int) {
	p := s.p
	src := s.nodeOrder[lvl]
	suffix := s.srcNodeCntAt(lvl + 1)
	sizeA := s.srcNodeSize[lvl+1]
	parentG := int(s.slab[st].g)
	parentLevel := s.slab[st].level
	var sizeB, interAB, edgeLB int
	if s.useLB {
		sizeB = s.tgtNodeSize
		interAB = interSize(suffix, s.tgtNodeCnt)
		// Full edge-part bound: no hyperedges are mapped at node levels.
		edgePsi := maxInt(s.srcEdgeSize[0], s.tgtEdgeSize) - interSize(s.srcEdgeCntAt(0), s.tgtEdgeCnt)
		edgeLB = weightedPsi(edgePsi, s.srcEdgeSize[0]-s.tgtEdgeSize, p.w.Edge, p.w.minEdgeMismatch()) +
			sortedL1(s.srcEdgeCards[0], s.tgtEdgeCards)*p.w.Incidence
	}
	for j := 0; j < s.N; j++ {
		if s.usedNodes[j] {
			continue
		}
		childG := parentG + p.nodeCost(src, j)
		childLB := edgeLB
		if s.useLB {
			inter, size := interAB, sizeB
			if j < p.tgt.n {
				l := p.tgtNodeLab[j]
				if cb := s.tgtNodeCnt[l]; cb >= 1 && cb <= suffix[l] {
					inter--
				}
				size--
			}
			psi := maxInt(sizeA, size) - inter
			childLB += weightedPsi(psi, sizeA-size, p.w.Node, p.w.minNodeMismatch())
		}
		if f := childG + childLB; f < bound {
			s.pushState(state{parent: st, choice: int32(j), level: parentLevel + 1, g: int32(childG), f: int32(f)})
		}
	}
}

// expandEdgeLevel pushes the children of an edge-level state; the node
// mapping is complete, so edge costs are exact.
func (s *bfsSearch) expandEdgeLevel(st int32, lvl, bound int) {
	p := s.p
	elvl := lvl - s.N
	src := s.edgeOrder[elvl]
	suffix := s.srcEdgeCntAt(elvl + 1)
	sizeA := s.srcEdgeSize[elvl+1]
	srcCards := s.srcEdgeCards[elvl+1]
	parentG := int(s.slab[st].g)
	parentLevel := s.slab[st].level
	var sizeB, interAB int
	if s.useLB {
		sizeB = s.tgtEdgeSize
		interAB = interSize(suffix, s.tgtEdgeCnt)
	}
	for j := 0; j < s.M; j++ {
		if s.usedEdges[j] {
			continue
		}
		childG := parentG + p.edgeCost(src, j, s.nodeMapBuf)
		childLB := 0
		if s.useLB {
			inter, size := interAB, sizeB
			cards := s.tgtEdgeCards
			if j < p.tgt.m {
				l := p.tgtEdgeLab[j]
				if cb := s.tgtEdgeCnt[l]; cb >= 1 && cb <= suffix[l] {
					inter--
				}
				size--
				s.cardScratch = append(s.cardScratch[:0], s.tgtEdgeCards...)
				cards = removeSortedIntInPlace(s.cardScratch, p.tgt.cards[j])
			}
			psi := maxInt(sizeA, size) - inter
			childLB = weightedPsi(psi, sizeA-size, p.w.Edge, p.w.minEdgeMismatch()) +
				sortedL1(srcCards, cards)*p.w.Incidence
		}
		if f := childG + childLB; f < bound {
			s.pushState(state{parent: st, choice: int32(j), level: parentLevel + 1, g: int32(childG), f: int32(f)})
		}
	}
}

func (s *bfsSearch) reconstructMapping(goal int32) *Mapping {
	p := s.p
	N, M := p.paddedN, p.paddedM
	mp := p.mapping(make([]int, N), make([]int, M))
	for cur := goal; s.slab[cur].parent != noParent; cur = s.slab[cur].parent {
		lvl := int(s.slab[s.slab[cur].parent].level)
		if lvl < N {
			mp.NodeMap[s.nodeOrder[lvl]] = int(s.slab[cur].choice)
		} else {
			mp.EdgeMap[s.edgeOrder[lvl-N]] = int(s.slab[cur].choice)
		}
	}
	return mp
}

// --------------------------------------------------------------- heap
//
// The priority queue is a binary min-heap of slab indices ordered on
// (f ascending, level descending) — deeper states first on ties so goals
// surface sooner. The sift procedures mirror container/heap exactly, so the
// pop order (and therefore the reported edit paths) is bit-for-bit the same
// as the previous pointer-based implementation; what changed is that pushes
// append to the slab and index array instead of allocating.

func (s *bfsSearch) stateLess(a, b int32) bool {
	sa, sb := &s.slab[a], &s.slab[b]
	if sa.f != sb.f {
		return sa.f < sb.f
	}
	return sa.level > sb.level
}

// pushState slab-allocates st and sifts its index up the heap.
func (s *bfsSearch) pushState(st state) {
	s.slab = append(s.slab, st)
	s.heapIdx = append(s.heapIdx, int32(len(s.slab)-1))
	h := s.heapIdx
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.stateLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popState removes and returns the minimum state's slab index.
func (s *bfsSearch) popState() int32 {
	h := s.heapIdx
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift the swapped-in root down over h[:n] (container/heap's down).
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.stateLess(h[j2], h[j1]) {
			j = j2
		}
		if !s.stateLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	top := h[n]
	s.heapIdx = h[:n]
	return top
}
