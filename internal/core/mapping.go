package core

import (
	"fmt"
	"slices"

	"hged/internal/hypergraph"
)

// Mapping is a complete correspondence between the entities of a source and
// a target hypergraph, with the smaller side padded by null entities
// (Lemma 4.1 guarantees an optimal edit sequence needs no node insertion
// when the source is at least as large, which padding encodes symmetrically):
//
//   - NodeMap[i] = j maps source node slot i to target node slot j. Slots
//     < SrcN (resp. < TgtN) are real nodes; higher slots are nulls. A real
//     source node mapped to a null target slot is deleted; a null source
//     slot mapped to a real target node is inserted.
//   - EdgeMap analogously for hyperedges.
//
// Both maps are permutations of 0..N-1 and 0..M-1 where N = max(n, n') and
// M = max(m, m').
type Mapping struct {
	SrcN, TgtN int // real node counts n, n'
	SrcM, TgtM int // real hyperedge counts m, m'
	NodeMap    []int
	EdgeMap    []int
}

// PaddedN returns N = max(SrcN, TgtN).
func (mp *Mapping) PaddedN() int { return maxInt(mp.SrcN, mp.TgtN) }

// PaddedM returns M = max(SrcM, TgtM).
func (mp *Mapping) PaddedM() int { return maxInt(mp.SrcM, mp.TgtM) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Validate checks that both maps are permutations of the padded ranges.
func (mp *Mapping) Validate() error {
	if err := checkPerm("NodeMap", mp.NodeMap, mp.PaddedN()); err != nil {
		return err
	}
	return checkPerm("EdgeMap", mp.EdgeMap, mp.PaddedM())
}

func checkPerm(name string, perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("core: %s has length %d, want %d", name, len(perm), n)
	}
	seen := make([]bool, n)
	for i, j := range perm {
		if j < 0 || j >= n {
			return fmt.Errorf("core: %s[%d] = %d out of range", name, i, j)
		}
		if seen[j] {
			return fmt.Errorf("core: %s maps twice to %d", name, j)
		}
		seen[j] = true
	}
	return nil
}

// graphData is the solver-internal compiled form of a hypergraph: flat label
// slices, edge member lists, and per-edge membership bitsets for O(1)
// intersection tests. All storage is arena-backed (edge member lists slice
// into nodeArena, bitsets into the flat memberBits) so that a pooled solver
// can recompile graphs into the same buffers without reallocating.
type graphData struct {
	n, m       int
	nodeLabels []hypergraph.Label
	edgeLabels []hypergraph.Label
	edgeNodes  [][]int // slices into nodeArena
	nodeArena  []int
	cards      []int
	// memberBits is a flat bitset array: edge e owns the bitWords words at
	// [e*bitWords, (e+1)*bitWords), marking node membership in e.
	memberBits []uint64
	bitWords   int
	degrees    []int
	// nodeLabIDs and edgeLabIDs are the labels as ids of dict, the
	// interned dictionary of the frozen host this compilation was read
	// from; init densifies them into the pair-union ids.
	nodeLabIDs, edgeLabIDs []int32
	dict                   []hypergraph.Label
	// hostEdges is compile scratch: the host ids of the kept hyperedges.
	hostEdges []int32
	// groupScore is rerank scratch indexed by dict id, all zero between
	// calls.
	groupScore []int
}

// compile fills d with G_S, the sub-hypergraph of the frozen host c induced
// by set, reusing d's buffers when they have capacity; a nil set selects
// every node, which compiles c itself. set must ascend without duplicates.
// The result is field for field the compile of host.InducedSubgraph(set)
// as a whole graph: nodes in set order, the hyperedges wholly inside set
// ascending by host id, members as positions in set, degrees counted
// inside set. Label ids stay those of c's dictionary; init's densify maps
// them to the same first-occurrence pair ids the subgraph's own dictionary
// would give.
func (d *graphData) compile(c *hypergraph.CSR, set []hypergraph.NodeID) {
	n := len(set)
	d.hostEdges = d.hostEdges[:0]
	incid := 0
	if set == nil {
		n = c.NumNodes()
		for e := 0; e < c.NumEdges(); e++ {
			d.hostEdges = append(d.hostEdges, int32(e))
		}
		incid = c.Incidences()
	} else {
		// A kept hyperedge is met once, at its first member, and must fit
		// in what is left of set from there.
		for i, v := range set {
			for _, e := range c.IncidentEdges(v) {
				members := c.Members(e)
				if members[0] == v && len(members) <= n-i && subsetOf(members[1:], set[i+1:]) {
					d.hostEdges = append(d.hostEdges, int32(e))
					incid += len(members)
				}
			}
		}
		slices.Sort(d.hostEdges)
	}
	m := len(d.hostEdges)
	d.n, d.m = n, m
	d.dict = c.Labels()
	d.nodeLabels = growLabels(d.nodeLabels, n)
	d.nodeLabIDs = growInt32s(d.nodeLabIDs, n)
	d.degrees = growInts(d.degrees, n)
	for i := 0; i < n; i++ {
		v := hypergraph.NodeID(i)
		if set != nil {
			v = set[i]
		}
		id := c.NodeLabelID(v)
		d.nodeLabIDs[i] = id
		d.nodeLabels[i] = d.dict[id]
		d.degrees[i] = 0
	}
	d.edgeLabels = growLabels(d.edgeLabels, m)
	d.edgeLabIDs = growInt32s(d.edgeLabIDs, m)
	d.edgeNodes = growIntSlices(d.edgeNodes, m)
	d.cards = growInts(d.cards, m)
	d.bitWords = (n + 63) / 64
	d.memberBits = growUint64s(d.memberBits, m*d.bitWords)
	for i := range d.memberBits {
		d.memberBits[i] = 0
	}
	d.nodeArena = growInts(d.nodeArena, incid)
	next := 0
	for k, e := range d.hostEdges {
		members := c.Members(hypergraph.EdgeID(e))
		id := c.EdgeLabelID(hypergraph.EdgeID(e))
		d.edgeLabIDs[k] = id
		d.edgeLabels[k] = d.dict[id]
		d.cards[k] = len(members)
		nodes := d.nodeArena[next : next+len(members)]
		next += len(members)
		bits := d.memberBits[k*d.bitWords : (k+1)*d.bitWords]
		j := 0 // both lists ascend: one merge walk places every member
		for i, u := range members {
			v := int(u)
			if set != nil {
				for set[j] < u {
					j++
				}
				v = j
			}
			nodes[i] = v
			bits[v/64] |= 1 << (uint(v) % 64)
			d.degrees[v]++
		}
		d.edgeNodes[k] = nodes
	}
}

// subsetOf reports whether every id of the ascending members occurs in the
// ascending set.
func subsetOf(members, set []hypergraph.NodeID) bool {
	j := 0
	for _, u := range members {
		for j < len(set) && set[j] < u {
			j++
		}
		if j == len(set) || set[j] != u {
			return false
		}
		j++
	}
	return true
}

func (d *graphData) contains(e, v int) bool {
	if v < 0 || v >= d.n {
		return false
	}
	return d.memberBits[e*d.bitWords+v/64]&(1<<(uint(v)%64)) != 0
}

// growInts and friends return a slice of length n, reusing buf's backing
// array when it is large enough. Contents are unspecified unless the caller
// overwrites them.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growUint64s(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

func growLabels(buf []hypergraph.Label, n int) []hypergraph.Label {
	if cap(buf) < n {
		return make([]hypergraph.Label, n)
	}
	return buf[:n]
}

func growIntSlices(buf [][]int, n int) [][]int {
	if cap(buf) < n {
		return make([][]int, n)
	}
	return buf[:n]
}

// pair bundles the compiled source and target for cost evaluation, with
// shared dense label dictionaries so search code can use array-indexed
// label multisets instead of maps. A pair owned by a solver is re-initialized
// in place across solves; its dictionaries, label slices and scratch buffers
// are retained and reused.
type pair struct {
	src, tgt *graphData
	paddedN  int
	paddedM  int
	w        CostModel
	// Dense label indices over the union of both graphs' labels.
	srcNodeLab, tgtNodeLab []int
	srcEdgeLab, tgtEdgeLab []int
	numNodeLab, numEdgeLab int
	// Retained label dictionaries (cleared, not reallocated, per init).
	nodeDict, edgeDict map[hypergraph.Label]int
	// labTrans is scratch translating one graph's interned label ids into
	// pair-dictionary ids; -1 (not yet translated) outside densify.
	labTrans []int
	// Root lower-bound scratch (see bounds.go rootLowerBound).
	psiCnt                     []int32
	cardScratchA, cardScratchB []int
	// Memoized EDC-INAC target-edge index (see edc.go): built at most once
	// per initialized pair, shared by every complete mapping evaluated.
	tgtIndex      edgeSetIndex
	tgtIndexBuilt bool
	// EDC-INAC scratch.
	edcMapped  []int
	edcMatched []bool
	// sampleMemo holds Strategy-2 permutations across inits (see
	// samplePerms); it depends only on its key, never on the graphs.
	sampleMemo map[sampleKey][][]int
	// greedy is Strategy 2's greedy-mapping scratch (see greedyPerms).
	greedy greedyScratch
}

func newPair(g, h *hypergraph.Hypergraph) *pair {
	return newPairModel(g, h, UnitCosts())
}

func newPairModel(g, h *hypergraph.Hypergraph, w CostModel) *pair {
	p := new(pair)
	p.init(g, h, w)
	return p
}

// init (re)compiles the pair model of g and h into p, reusing retained
// storage.
func (p *pair) init(g, h *hypergraph.Hypergraph, w CostModel) {
	p.compile(g.Freeze(), nil, h.Freeze(), nil, w)
}

// compile (re)compiles the pair model of the sub-hypergraphs a and b induce
// on the frozen hosts cg and ch (nil: the whole host; see
// graphData.compile) into p, reusing retained storage.
func (p *pair) compile(cg *hypergraph.CSR, a []hypergraph.NodeID, ch *hypergraph.CSR, b []hypergraph.NodeID, w CostModel) {
	if p.src == nil {
		p.src, p.tgt = new(graphData), new(graphData)
	}
	p.src.compile(cg, a)
	p.tgt.compile(ch, b)
	p.paddedN = maxInt(p.src.n, p.tgt.n)
	p.paddedM = maxInt(p.src.m, p.tgt.m)
	p.w = w
	if p.nodeDict == nil {
		p.nodeDict = make(map[hypergraph.Label]int)
		p.edgeDict = make(map[hypergraph.Label]int)
	} else {
		clear(p.nodeDict)
		clear(p.edgeDict)
	}
	s, t := p.src, p.tgt
	p.srcNodeLab = p.densify(p.srcNodeLab, s.nodeLabIDs, s.dict, p.nodeDict)
	p.tgtNodeLab = p.densify(p.tgtNodeLab, t.nodeLabIDs, t.dict, p.nodeDict)
	p.numNodeLab = len(p.nodeDict)
	p.srcEdgeLab = p.densify(p.srcEdgeLab, s.edgeLabIDs, s.dict, p.edgeDict)
	p.tgtEdgeLab = p.densify(p.tgtEdgeLab, t.edgeLabIDs, t.dict, p.edgeDict)
	p.numEdgeLab = len(p.edgeDict)
	p.tgtIndexBuilt = false
}

// densify translates one graph's label ids (indices into dict, its host's
// interned dictionary) into the pair-union dense ids, inserting unseen
// labels in first-occurrence order — exactly the order the historical
// label-by-label map walk produced, which solver determinism relies on.
// Each distinct label probes the pair dictionary once; repeats hit the
// translation scratch array, which is reset entry by entry afterwards, so
// a large host dictionary costs nothing per call.
func (p *pair) densify(out []int, ids []int32, dict []hypergraph.Label, pairDict map[hypergraph.Label]int) []int {
	out = growInts(out, len(ids))
	for len(p.labTrans) < len(dict) {
		p.labTrans = append(p.labTrans, -1)
	}
	for i, id := range ids {
		t := p.labTrans[id]
		if t < 0 {
			var ok bool
			t, ok = pairDict[dict[id]]
			if !ok {
				t = len(pairDict)
				pairDict[dict[id]] = t
			}
			p.labTrans[id] = t
		}
		out[i] = t
	}
	for _, id := range ids {
		p.labTrans[id] = -1
	}
	return out
}

// nodeCost returns the cost of mapping source node slot i to target node
// slot j: a relabel for mismatched real-real pairs, a node deletion or
// insertion when one side is null.
func (p *pair) nodeCost(i, j int) int {
	iReal, jReal := i < p.src.n, j < p.tgt.n
	switch {
	case iReal && jReal:
		if p.src.nodeLabels[i] != p.tgt.nodeLabels[j] {
			return p.w.NodeRelabel
		}
		return 0
	case iReal != jReal:
		return p.w.Node // deletion or insertion
	default:
		return 0 // null-null (cannot occur with one-sided padding)
	}
}

// edgeCost returns the exact cost of mapping source edge slot e to target
// edge slot f under a complete node map: label mismatch plus the symmetric
// difference |fmap(E_e) Δ E'_f| of incidences, or cardinality+1 for
// deletion/insertion.
func (p *pair) edgeCost(e, f int, nodeMap []int) int {
	eReal, fReal := e < p.src.m, f < p.tgt.m
	switch {
	case eReal && fReal:
		cost := 0
		if p.src.edgeLabels[e] != p.tgt.edgeLabels[f] {
			cost = p.w.EdgeRelabel
		}
		inter := 0
		for _, u := range p.src.edgeNodes[e] {
			if p.tgt.contains(f, nodeMap[u]) {
				inter++
			}
		}
		return cost + (p.src.cards[e]+p.tgt.cards[f]-2*inter)*p.w.Incidence
	case eReal:
		// Delete edge: reduce each member, then delete.
		return p.w.Edge + p.src.cards[e]*p.w.Incidence
	case fReal:
		// Insert edge: insert empty, then extend.
		return p.w.Edge + p.tgt.cards[f]*p.w.Incidence
	default:
		return 0
	}
}

// mapping wraps a node and a hyperedge map of the pair as a Mapping.
func (p *pair) mapping(nodeMap, edgeMap []int) *Mapping {
	return &Mapping{
		SrcN: p.src.n, TgtN: p.tgt.n,
		SrcM: p.src.m, TgtM: p.tgt.m,
		NodeMap: nodeMap,
		EdgeMap: edgeMap,
	}
}

// totalCost evaluates the exact edit cost of the complete mapping of
// nodeMap and edgeMap.
func (p *pair) totalCost(nodeMap, edgeMap []int) int {
	cost := 0
	for i, j := range nodeMap {
		cost += p.nodeCost(i, j)
	}
	for e, f := range edgeMap {
		cost += p.edgeCost(e, f, nodeMap)
	}
	return cost
}

// Cost computes the exact edit cost of transforming g into h under the
// complete mapping mp. It is exported for tests and tooling; the solvers
// use the same evaluation internally.
func Cost(g, h *hypergraph.Hypergraph, mp *Mapping) (int, error) {
	if mp.SrcN != g.NumNodes() || mp.TgtN != h.NumNodes() ||
		mp.SrcM != g.NumEdges() || mp.TgtM != h.NumEdges() {
		return 0, fmt.Errorf("core: mapping sized for (%d,%d)x(%d,%d), graphs are (%d,%d)x(%d,%d)",
			mp.SrcN, mp.SrcM, mp.TgtN, mp.TgtM,
			g.NumNodes(), g.NumEdges(), h.NumNodes(), h.NumEdges())
	}
	if err := mp.Validate(); err != nil {
		return 0, err
	}
	return newPair(g, h).totalCost(mp.NodeMap, mp.EdgeMap), nil
}

// extractPath derives an explicit edit path from a complete mapping. The
// number of operations equals the mapping's exact cost. Operations are
// ordered so that Path.Apply succeeds: node insertions first, then
// relabels, matched-edge extend/reduce, edge insertions (+extends), edge
// deletions (reduce to empty, then delete), and finally node deletions.
func (p *pair) extractPath(mp *Mapping) *Path {
	var ops []Op
	// Inverse node map: target slot -> source slot.
	invNode := make([]int, mp.PaddedN())
	for i, j := range mp.NodeMap {
		invNode[j] = i
	}

	// 1. Node insertions (null source slot -> real target node). The new
	// node occupies its source slot id and takes the target node's label.
	for i, j := range mp.NodeMap {
		if i >= p.src.n && j < p.tgt.n {
			ops = append(ops, Op{Kind: OpNodeInsert, Node: i, Label: p.tgt.nodeLabels[j]})
		}
	}
	// 2. Node relabels.
	for i, j := range mp.NodeMap {
		if i < p.src.n && j < p.tgt.n && p.src.nodeLabels[i] != p.tgt.nodeLabels[j] {
			ops = append(ops, Op{Kind: OpNodeRelabel, Node: i, Label: p.tgt.nodeLabels[j]})
		}
	}
	// 3. Matched real-real edges: relabel, reduce members not mapping into
	// the target edge, extend with preimages of uncovered target members.
	for e, f := range mp.EdgeMap {
		if e >= p.src.m || f >= p.tgt.m {
			continue
		}
		if p.src.edgeLabels[e] != p.tgt.edgeLabels[f] {
			ops = append(ops, Op{Kind: OpEdgeRelabel, Edge: e, Label: p.tgt.edgeLabels[f]})
		}
		for _, u := range p.src.edgeNodes[e] {
			if !p.tgt.contains(f, mp.NodeMap[u]) {
				ops = append(ops, Op{Kind: OpEdgeReduce, Edge: e, Node: u})
			}
		}
		for _, v := range p.tgt.edgeNodes[f] {
			u := invNode[v]
			if u >= p.src.n || !p.src.contains(e, u) {
				ops = append(ops, Op{Kind: OpEdgeExtend, Edge: e, Node: u})
			}
		}
	}
	// 4. Edge insertions (null source slot -> real target edge): insert an
	// empty hyperedge then extend it with the preimages of the target
	// edge's members.
	for e, f := range mp.EdgeMap {
		if e < p.src.m || f >= p.tgt.m {
			continue
		}
		ops = append(ops, Op{Kind: OpEdgeInsert, Edge: e, Label: p.tgt.edgeLabels[f]})
		for _, v := range p.tgt.edgeNodes[f] {
			ops = append(ops, Op{Kind: OpEdgeExtend, Edge: e, Node: invNode[v]})
		}
	}
	// 5. Edge deletions (real source edge -> null target slot): reduce to
	// cardinality 0 then delete.
	for e, f := range mp.EdgeMap {
		if e >= p.src.m || f < p.tgt.m {
			continue
		}
		for _, u := range p.src.edgeNodes[e] {
			ops = append(ops, Op{Kind: OpEdgeReduce, Edge: e, Node: u})
		}
		ops = append(ops, Op{Kind: OpEdgeDelete, Edge: e})
	}
	// 6. Node deletions (real source node -> null target slot).
	for i, j := range mp.NodeMap {
		if i < p.src.n && j >= p.tgt.n {
			ops = append(ops, Op{Kind: OpNodeDelete, Node: i})
		}
	}
	return &Path{Ops: ops, Mapping: *mp}
}
