package core

import (
	"math/bits"
	"slices"
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
// in O(1) per candidate from the popped state's base quantities. At edge
// levels a child's exact cost is a popcount of the source hyperedge's image
// under the complete node map against the target's membership row, and its
// cardinality bound is read off prefix and suffix sums built once per pop,
// so each child is priced in O(1) besides one binary search.
//
// Search states live in a per-search slab and reference their parents by
// index, so pushing a state never allocates once the slab is warm; the
// per-pop scratch (used slots, node map, target remainders) moves from the
// last popped state to the next along the slab's parent links instead of
// being rebuilt from the root. BFS is Within at the threshold of opts, so
// it runs on a pooled solver whose slab, priority queue and scratch persist
// across calls.
func BFS(g, h *hypergraph.Hypergraph, opts Options) Result {
	res, _ := Within(g, h, opts.Tau(), opts)
	return res
}

// state is a search node: the assignment made at the parent's level to reach
// it and the exact accumulated cost g. Its estimate f = g + h travels in
// its heap entry. States are slab-allocated; parent is a slab index
// (noParent for the root), and level is the number of entities assigned.
type state struct {
	parent int32
	choice int32
	level  int32
	g      int32
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
	// nodeEdgeLB is the hyperedge part of the suffix bound at every node
	// level: no hyperedge is mapped there, so it is the root's.
	nodeEdgeLB int

	// Scratch state of the slab state cur: used target slots, the node map
	// of the assigned source nodes, and the target's unassigned label counts
	// and cardinalities. restore moves it from cur to the next popped state.
	cur                  int32
	usedNodes, usedEdges []bool
	nodeMapBuf           []int
	tgtNodeCnt           []int32
	tgtNodeSize          int
	tgtEdgeCnt           []int32
	tgtEdgeSize          int
	tgtEdgeCards         []int   // ascending
	walk                 []int32 // restore scratch: states to apply, deepest first

	// Per-pop edge-level pricing scratch: the image of the source hyperedge
	// under the node map as a target-node bitset, and the top-aligned L1
	// tables of l1Tables.
	img            []uint64
	l1Pre, l1Shift []int

	// Slab of all created states plus the priority queue over it.
	slab []state
	heap []heapEntry
}

func (s *bfsSearch) srcNodeCntAt(k int) []int32 {
	w := s.p.numNodeLab
	return s.srcNodeCnt[k*w : (k+1)*w]
}

func (s *bfsSearch) srcEdgeCntAt(k int) []int32 {
	w := s.p.numEdgeLab
	return s.srcEdgeCnt[k*w : (k+1)*w]
}

// init prepares the search for p, reusing every retained buffer, and
// resets the scratch state to the root.
func (s *bfsSearch) init(p *pair, opts Options) {
	N, M := p.paddedN, p.paddedM
	s.p, s.N, s.M = p, N, M
	s.useLB = !opts.DisableLowerBound
	s.nodeOrder = growInts(s.nodeOrder, N)
	rerankNodes(s.nodeOrder, p.src, opts.DisableRerank)
	s.edgeOrder = growInts(s.edgeOrder, M)
	rerankEdges(s.edgeOrder, p.src, opts.DisableRerank)
	s.slab = s.slab[:0]
	s.heap = s.heap[:0]

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

	// Scratch state at the root, which is slab state 0 once pushed.
	s.cur = 0
	s.usedNodes = growBools(s.usedNodes, N)
	clear(s.usedNodes)
	s.usedEdges = growBools(s.usedEdges, M)
	clear(s.usedEdges)
	s.nodeMapBuf = growInts(s.nodeMapBuf, N)
	s.tgtNodeCnt = growInt32s(s.tgtNodeCnt, p.numNodeLab)
	clear(s.tgtNodeCnt)
	for _, l := range p.tgtNodeLab {
		s.tgtNodeCnt[l]++
	}
	s.tgtNodeSize = p.tgt.n
	s.tgtEdgeCnt = growInt32s(s.tgtEdgeCnt, p.numEdgeLab)
	clear(s.tgtEdgeCnt)
	for _, l := range p.tgtEdgeLab {
		s.tgtEdgeCnt[l]++
	}
	s.tgtEdgeSize = p.tgt.m
	s.tgtEdgeCards = append(s.tgtEdgeCards[:0], p.tgt.cards...)
	sort.Ints(s.tgtEdgeCards)
	s.img = growUint64s(s.img, p.tgt.bitWords)

	s.nodeEdgeLB = 0
	if s.useLB {
		edgePsi := maxInt(s.srcEdgeSize[0], s.tgtEdgeSize) - interSize(s.srcEdgeCntAt(0), s.tgtEdgeCnt)
		s.nodeEdgeLB = weightedPsi(edgePsi, s.srcEdgeSize[0]-s.tgtEdgeSize, p.w.Edge, p.w.minEdgeMismatch()) +
			sortedL1(s.srcEdgeCards[0], s.tgtEdgeCards)*p.w.Incidence
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

// restore moves the scratch state from the state it holds to st: it undoes
// assignments up to their common ancestor, then applies the ones down to
// st. Every undo precedes every apply, since both branches may use the
// same target slot.
func (s *bfsSearch) restore(st int32) {
	a, b := s.cur, st
	s.walk = s.walk[:0]
	for s.slab[a].level > s.slab[b].level {
		s.move(a, false)
		a = s.slab[a].parent
	}
	for s.slab[b].level > s.slab[a].level {
		s.walk = append(s.walk, b)
		b = s.slab[b].parent
	}
	for a != b {
		s.move(a, false)
		a = s.slab[a].parent
		s.walk = append(s.walk, b)
		b = s.slab[b].parent
	}
	for i := len(s.walk) - 1; i >= 0; i-- {
		s.move(s.walk[i], true)
	}
	s.cur = st
}

// move applies (do) or undoes the assignment that created the non-root
// state x: source entity level(x)−1 to target slot choice(x).
func (s *bfsSearch) move(x int32, do bool) {
	p := s.p
	lvl := int(s.slab[x].level) - 1
	j := int(s.slab[x].choice)
	d := int32(1)
	if do {
		d = -1
	}
	if lvl < s.N {
		s.usedNodes[j] = do
		if do {
			s.nodeMapBuf[s.nodeOrder[lvl]] = j
		}
		if j < p.tgt.n {
			s.tgtNodeCnt[p.tgtNodeLab[j]] += d
			s.tgtNodeSize += int(d)
		}
		return
	}
	s.usedEdges[j] = do
	if j < p.tgt.m {
		s.tgtEdgeCnt[p.tgtEdgeLab[j]] += d
		s.tgtEdgeSize += int(d)
		c := p.tgt.cards[j]
		i := sort.SearchInts(s.tgtEdgeCards, c)
		if do {
			s.tgtEdgeCards = slices.Delete(s.tgtEdgeCards, i, i+1)
		} else {
			s.tgtEdgeCards = slices.Insert(s.tgtEdgeCards, i, c)
		}
	}
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

// run searches the prepared pair at threshold tau (see Within), whose
// Strategy-3 root bound rootLB (0 without lower bounds) the caller has
// already screened against tau.
func (s *bfsSearch) run(opts Options, tau, rootLB int) Result {
	p := s.p
	total := s.N + s.M

	// Strategy 2: initial incumbent. Its mapping is built only when the
	// result reports it.
	incumbent, winner := 1<<30, greedyWinner
	if !opts.DisableUpperBound {
		incumbent, winner = p.strategy2(upperBoundSamples, upperBoundSeed)
	}
	bound := incumbent
	if tau+1 < bound {
		bound = tau + 1
	}

	if rootLB < bound {
		s.pushState(state{parent: noParent}, int32(rootLB))
	}

	budget := opts.maxExpansions()
	var expanded int64
	capped := false
	goal := noParent

	for len(s.heap) > 0 {
		top := s.popState()
		if int(top.key>>32) >= bound {
			continue // stale against a tightened incumbent
		}
		expanded++
		if expanded > budget || opts.cancelled(expanded) {
			capped = true
			break
		}
		st := top.st
		lvl := int(s.slab[st].level)
		if lvl == total {
			goal = st
			break
		}
		s.restore(st)
		if lvl < s.N {
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
		if opts.DisableUpperBound {
			incumbent, winner = p.strategy2(upperBoundSamples, upperBoundSeed)
		}
		res.Distance = incumbent
		res.Path = p.extractPath(p.strategy2Mapping(upperBoundSamples, upperBoundSeed, winner))
		return res
	default:
		// Queue exhausted below bound: the incumbent (or exceedance) is
		// the answer.
		res.Distance = incumbent
		if !opts.DisableUpperBound && incumbent <= tau {
			res.Path = p.extractPath(p.strategy2Mapping(upperBoundSamples, upperBoundSeed, winner))
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
	childLevel := s.slab[st].level + 1
	var sizeB, interAB int
	if s.useLB {
		sizeB = s.tgtNodeSize
		interAB = interSize(suffix, s.tgtNodeCnt)
	}
	for j := 0; j < s.N; j++ {
		if s.usedNodes[j] {
			continue
		}
		childG := parentG + p.nodeCost(src, j)
		childLB := s.nodeEdgeLB
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
			s.pushState(state{parent: st, choice: int32(j), level: childLevel, g: int32(childG)}, int32(f))
		}
	}
}

// expandEdgeLevel pushes the children of an edge-level state. The node
// mapping is complete, so edge costs are exact: a real pair's overlap is
// the popcount of the source hyperedge's image against the target's
// membership row.
func (s *bfsSearch) expandEdgeLevel(st int32, lvl, bound int) {
	p := s.p
	elvl := lvl - s.N
	src := s.edgeOrder[elvl]
	suffix := s.srcEdgeCntAt(elvl + 1)
	sizeA := s.srcEdgeSize[elvl+1]
	parentG := int(s.slab[st].g)
	childLevel := s.slab[st].level + 1
	srcReal := src < p.src.m
	var srcCard, srcLab int
	if srcReal {
		srcCard, srcLab = p.src.cards[src], p.srcEdgeLab[src]
		clear(s.img)
		for _, u := range p.src.edgeNodes[src] {
			if v := s.nodeMapBuf[u]; v < p.tgt.n {
				s.img[v/64] |= 1 << (uint(v) % 64)
			}
		}
	}
	var sizeB, interAB, l1Null int
	if s.useLB {
		sizeB = s.tgtEdgeSize
		interAB = interSize(suffix, s.tgtEdgeCnt)
		l1Null = s.l1Tables(s.srcEdgeCards[elvl+1])
	}
	bw := p.tgt.bitWords
	for j := 0; j < s.M; j++ {
		if s.usedEdges[j] {
			continue
		}
		tgtReal := j < p.tgt.m
		childG := parentG
		switch {
		case srcReal && tgtReal:
			if srcLab != p.tgtEdgeLab[j] {
				childG += p.w.EdgeRelabel
			}
			inter := 0
			for k, w := range p.tgt.memberBits[j*bw : (j+1)*bw] {
				inter += bits.OnesCount64(w & s.img[k])
			}
			childG += (srcCard + p.tgt.cards[j] - 2*inter) * p.w.Incidence
		case srcReal:
			childG += p.w.Edge + srcCard*p.w.Incidence // delete
		case tgtReal:
			childG += p.w.Edge + p.tgt.cards[j]*p.w.Incidence // insert
		}
		childLB := 0
		if s.useLB {
			inter, size, l1 := interAB, sizeB, l1Null
			if tgtReal {
				l := p.tgtEdgeLab[j]
				if cb := s.tgtEdgeCnt[l]; cb >= 1 && cb <= suffix[l] {
					inter--
				}
				size--
				l1 = s.l1Without(p.tgt.cards[j])
			}
			psi := maxInt(sizeA, size) - inter
			childLB = weightedPsi(psi, sizeA-size, p.w.Edge, p.w.minEdgeMismatch()) + l1*p.w.Incidence
		}
		if f := childG + childLB; f < bound {
			s.pushState(state{parent: st, choice: int32(j), level: childLevel, g: int32(childG)}, int32(f))
		}
	}
}

// l1Tables prepares l1Without for the ascending source remainder a against
// the target remainder b = tgtEdgeCards, and returns sortedL1(a, b). Both
// lists are read top-aligned: position i ≥ 1 holds the i-th largest value,
// 0 past the end. l1Pre[t] sums |a_i − b_i| over i ≤ t; l1Shift[t] sums
// |a_i − b_{i+1}| over i ≥ t, the terms of positions at or below a value
// removed from b, whose lower values all move up one position.
func (s *bfsSearch) l1Tables(a []int) int {
	b := s.tgtEdgeCards
	n := maxInt(len(a), len(b))
	at := func(xs []int, i int) int {
		if i > len(xs) {
			return 0
		}
		return xs[len(xs)-i]
	}
	s.l1Pre = growInts(s.l1Pre, n+1)
	s.l1Shift = growInts(s.l1Shift, n+2)
	s.l1Pre[0] = 0
	for i := 1; i <= n; i++ {
		s.l1Pre[i] = s.l1Pre[i-1] + absInt(at(a, i)-at(b, i))
	}
	s.l1Shift[n+1] = 0
	for i := n; i >= 1; i-- {
		s.l1Shift[i] = s.l1Shift[i+1] + absInt(at(a, i)-at(b, i+1))
	}
	return s.l1Pre[n]
}

// l1Without returns sortedL1(a, b') for the lists of the last l1Tables
// call, b' being b with one occurrence of c removed: positions above the
// removed one keep their pairs, the ones from it down take l1Shift's.
func (s *bfsSearch) l1Without(c int) int {
	t := len(s.tgtEdgeCards) - sort.SearchInts(s.tgtEdgeCards, c)
	return s.l1Pre[t-1] + s.l1Shift[t]
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (s *bfsSearch) reconstructMapping(goal int32) *Mapping {
	p := s.p
	N, M := p.paddedN, p.paddedM
	mp := p.mapping(make([]int, N), make([]int, M))
	for cur := goal; s.slab[cur].parent != noParent; cur = s.slab[cur].parent {
		lvl := int(s.slab[cur].level) - 1
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
// The priority queue is a binary min-heap ordered on (f ascending, level
// descending) — deeper states first on ties so goals surface sooner. Each
// entry carries that order packed into one key, so sifting compares keys
// without reading the slab. The sift procedures mirror container/heap
// exactly, so the pop order (and therefore the reported edit paths) is bit
// for bit the same as a container/heap queue of the states.

// heapEntry is a queued slab state st; key holds f in its high half and
// the bitwise complement of the level in its low half, so key order is
// the queue order and equal keys tie as equal states.
type heapEntry struct {
	key uint64
	st  int32
}

// pushState slab-allocates st with estimate f and sifts it up the heap.
func (s *bfsSearch) pushState(st state, f int32) {
	s.slab = append(s.slab, st)
	s.heap = append(s.heap, heapEntry{
		key: uint64(uint32(f))<<32 | uint64(^uint32(st.level)),
		st:  int32(len(s.slab) - 1),
	})
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[i].key >= h[parent].key {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popState removes and returns the minimum entry.
func (s *bfsSearch) popState() heapEntry {
	h := s.heap
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
		if j2 := j1 + 1; j2 < n && h[j2].key < h[j1].key {
			j = j2
		}
		if h[j].key >= h[i].key {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	top := h[n]
	s.heap = h[:n]
	return top
}
