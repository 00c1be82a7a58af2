package core

import (
	"fmt"

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
// into nodeArena, bitsets into the flat memberBits) so that a pooled Solver
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
	// csr is the frozen view this compilation was built from; init reuses
	// its interned label dictionary for the pair-union densify.
	csr *hypergraph.CSR
}

// reset recompiles g into d, reusing d's buffers when they have capacity.
// The flat slices are filled straight from g's frozen CSR view — offset
// ranges and interned-label arrays — so compilation is sequential copies.
func (d *graphData) reset(g *hypergraph.Hypergraph) {
	c := g.Freeze()
	n, m := c.NumNodes(), c.NumEdges()
	d.n, d.m = n, m
	d.csr = c
	labels := c.Labels()
	d.nodeLabels = growLabels(d.nodeLabels, n)
	d.degrees = growInts(d.degrees, n)
	for v, id := range c.NodeLabelIDs() {
		d.nodeLabels[v] = labels[id]
		d.degrees[v] = c.Degree(hypergraph.NodeID(v))
	}
	d.edgeLabels = growLabels(d.edgeLabels, m)
	d.edgeNodes = growIntSlices(d.edgeNodes, m)
	d.cards = growInts(d.cards, m)
	d.bitWords = (n + 63) / 64
	d.memberBits = growUint64s(d.memberBits, m*d.bitWords)
	for i := range d.memberBits {
		d.memberBits[i] = 0
	}
	d.nodeArena = growInts(d.nodeArena, c.Incidences())
	next := 0
	for e := 0; e < m; e++ {
		members := c.Members(hypergraph.EdgeID(e))
		d.edgeLabels[e] = labels[c.EdgeLabelID(hypergraph.EdgeID(e))]
		d.cards[e] = len(members)
		nodes := d.nodeArena[next : next+len(members)]
		next += len(members)
		bits := d.memberBits[e*d.bitWords : (e+1)*d.bitWords]
		for i, v := range members {
			nodes[i] = int(v)
			bits[int(v)/64] |= 1 << (uint(v) % 64)
		}
		d.edgeNodes[e] = nodes
	}
}

func compile(g *hypergraph.Hypergraph) *graphData {
	d := new(graphData)
	d.reset(g)
	return d
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
// label multisets instead of maps. A pair owned by a Solver is re-initialized
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
	// pair-dictionary ids (-1 = not yet translated this pass).
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
}

func newPair(g, h *hypergraph.Hypergraph) *pair {
	return newPairModel(g, h, UnitCosts())
}

func newPairModel(g, h *hypergraph.Hypergraph, w CostModel) *pair {
	p := new(pair)
	p.init(g, h, w)
	return p
}

// init (re)compiles the pair model into p, reusing retained storage.
func (p *pair) init(g, h *hypergraph.Hypergraph, w CostModel) {
	if p.src == nil {
		p.src, p.tgt = new(graphData), new(graphData)
	}
	p.src.reset(g)
	p.tgt.reset(h)
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
	cs, ct := p.src.csr, p.tgt.csr
	p.srcNodeLab = p.densify(p.srcNodeLab, cs.NodeLabelIDs(), cs.Labels(), p.nodeDict)
	p.tgtNodeLab = p.densify(p.tgtNodeLab, ct.NodeLabelIDs(), ct.Labels(), p.nodeDict)
	p.numNodeLab = len(p.nodeDict)
	p.srcEdgeLab = p.densify(p.srcEdgeLab, cs.EdgeLabelIDs(), cs.Labels(), p.edgeDict)
	p.tgtEdgeLab = p.densify(p.tgtEdgeLab, ct.EdgeLabelIDs(), ct.Labels(), p.edgeDict)
	p.numEdgeLab = len(p.edgeDict)
	p.tgtIndexBuilt = false
}

// densify translates one graph's interned label ids (indices into dict, its
// frozen CSR dictionary) into the pair-union dense ids, inserting unseen
// labels in first-occurrence order — exactly the order the historical
// label-by-label map walk produced, which solver determinism relies on.
// Each distinct label probes the pair dictionary once; repeats hit the
// translation scratch array.
func (p *pair) densify(out []int, ids []int32, dict []hypergraph.Label, pairDict map[hypergraph.Label]int) []int {
	out = growInts(out, len(ids))
	p.labTrans = growInts(p.labTrans, len(dict))
	for i := range p.labTrans {
		p.labTrans[i] = -1
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

// totalCost evaluates the exact edit cost of a complete mapping.
func (p *pair) totalCost(mp *Mapping) int {
	cost := 0
	for i, j := range mp.NodeMap {
		cost += p.nodeCost(i, j)
	}
	for e, f := range mp.EdgeMap {
		cost += p.edgeCost(e, f, mp.NodeMap)
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
	return newPair(g, h).totalCost(mp), nil
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
