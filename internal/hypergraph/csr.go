package hypergraph

import (
	"math/bits"
	"sync/atomic"
)

// Bitset is a fixed-capacity dense bit vector used for node/edge set
// arithmetic on the hot paths (neighbor scans, ego extraction, connected
// components, edit-path replay). It replaces the map[ID]struct{} idiom:
// membership tests and inserts are single word ops, iteration is ascending
// by construction (no sort needed), and a whole set clears with one memclr.
type Bitset []uint64

// NewBitset returns a bitset able to hold members 0..n-1, all unset.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Has reports whether i is a member.
func (b Bitset) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Add inserts i.
func (b Bitset) Add(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Remove deletes i.
func (b Bitset) Remove(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Reset unsets every member, keeping the capacity.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the number of members.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Grow reallocates b in place so it can hold members 0..n-1, preserving
// the current members.
func (b *Bitset) Grow(n int) {
	want := (n + 63) / 64
	if want <= len(*b) {
		return
	}
	nb := make(Bitset, want)
	copy(nb, *b)
	*b = nb
}

// ForEach calls f for every member in ascending order.
func (b Bitset) ForEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// CSR is a frozen, cache-friendly view of a hypergraph: both incidence
// directions laid out as flat offset+data arrays (compressed sparse row),
// with all labels interned into one dense dictionary. It is built once per
// graph by Freeze, shared by every reader, and discarded on the first
// mutation — the same lifecycle as the ego cache. All slices returned by
// its accessors alias the view and must not be mutated.
//
// Layout invariants:
//   - NodeEdges ranges list a node's incident hyperedges in ascending
//     EdgeID order (AddEdge appends increasing ids).
//   - EdgeNodes ranges list a hyperedge's members in ascending NodeID order
//     (hyperedge node lists are kept sorted).
//   - The label dictionary assigns dense ids in first-seen order scanning
//     node labels by id, then hyperedge labels by id — deterministic for a
//     given graph, so two Freezes of equal graphs intern identically.
type CSR struct {
	nodeOff   []int32  // len n+1; node v's incident edges at NodeEdges[nodeOff[v]:nodeOff[v+1]]
	nodeEdges []EdgeID // concatenated incident-edge lists
	edgeOff   []int32  // len m+1; edge e's members at EdgeNodes[edgeOff[e]:edgeOff[e+1]]
	edgeNodes []NodeID // concatenated member lists, ascending per edge
	nodeLab   []int32  // interned node label ids, len n
	edgeLab   []int32  // interned hyperedge label ids, len m
	labels    []Label  // dense id -> label
	labelID   map[Label]int32
}

// NumNodes returns |V|.
func (c *CSR) NumNodes() int { return len(c.nodeLab) }

// NumEdges returns |E|.
func (c *CSR) NumEdges() int { return len(c.edgeLab) }

// Incidences returns Σ|E|, the total membership count.
func (c *CSR) Incidences() int { return len(c.edgeNodes) }

// IncidentEdges returns the hyperedges containing v, ascending by id.
func (c *CSR) IncidentEdges(v NodeID) []EdgeID {
	return c.nodeEdges[c.nodeOff[v]:c.nodeOff[v+1]]
}

// Members returns the nodes of hyperedge e, ascending by id.
func (c *CSR) Members(e EdgeID) []NodeID {
	return c.edgeNodes[c.edgeOff[e]:c.edgeOff[e+1]]
}

// Degree returns DEG(v) as an offset difference.
func (c *CSR) Degree(v NodeID) int { return int(c.nodeOff[v+1] - c.nodeOff[v]) }

// Arity returns |E_e| as an offset difference.
func (c *CSR) Arity(e EdgeID) int { return int(c.edgeOff[e+1] - c.edgeOff[e]) }

// NumLabels returns the size of the interned label dictionary.
func (c *CSR) NumLabels() int { return len(c.labels) }

// Labels returns the dense-id → label dictionary.
func (c *CSR) Labels() []Label { return c.labels }

// LabelID returns the dense id of l and whether l occurs in the graph.
func (c *CSR) LabelID(l Label) (int32, bool) {
	id, ok := c.labelID[l]
	return id, ok
}

// NodeLabelID returns the interned id of l(v).
func (c *CSR) NodeLabelID(v NodeID) int32 { return c.nodeLab[v] }

// EdgeLabelID returns the interned id of l(E_e).
func (c *CSR) EdgeLabelID(e EdgeID) int32 { return c.edgeLab[e] }

// NodeLabelIDs returns the full interned node-label array.
func (c *CSR) NodeLabelIDs() []int32 { return c.nodeLab }

// EdgeLabelIDs returns the full interned hyperedge-label array.
func (c *CSR) EdgeLabelIDs() []int32 { return c.edgeLab }

func (c *CSR) intern(l Label) int32 {
	if id, ok := c.labelID[l]; ok {
		return id
	}
	id := int32(len(c.labels))
	c.labels = append(c.labels, l)
	c.labelID[l] = id
	return id
}

// Freeze returns the CSR view of h, building it on first use. The view is
// memoized until the next mutation (AddNode, AddEdge, SetNodeLabel,
// SetEdgeLabel), which discards it alongside the ego cache; the next Freeze
// rebuilds from the current graph. Concurrent Freezes are safe and converge
// on one canonical instance.
func (h *Hypergraph) Freeze() *CSR {
	h.egoMu.RLock()
	c := h.csr
	h.egoMu.RUnlock()
	if c != nil {
		return c
	}
	c = h.buildCSR()
	h.egoMu.Lock()
	if h.csr != nil {
		c = h.csr // lost the race: keep the canonical instance
	} else {
		h.csr = c
	}
	h.egoMu.Unlock()
	return c
}

// frozen returns the current CSR view without forcing a build, or nil.
// Read paths that must stay cheap on mutating graphs (Neighbors during
// construction) use it to avoid an O(n+m) rebuild per call.
func (h *Hypergraph) frozen() *CSR {
	h.egoMu.RLock()
	c := h.csr
	h.egoMu.RUnlock()
	return c
}

// freezeBuilds counts process-wide CSR constructions (Freeze cache misses).
// Cold-start benchmarks and the snapshot differential tests read it to prove
// a snapshot load performs zero rebuilds.
var freezeBuilds atomic.Int64

// FreezeBuilds returns the number of CSR views built by this process so far.
// Graphs constructed by FromFrozen never increment it unless they are
// mutated and re-frozen.
func FreezeBuilds() int64 { return freezeBuilds.Load() }

func (h *Hypergraph) buildCSR() *CSR {
	freezeBuilds.Add(1)
	n, m := len(h.nodeLabels), len(h.edges)
	incid := 0
	for i := range h.edges {
		incid += len(h.edges[i].Nodes)
	}
	c := &CSR{
		nodeOff:   make([]int32, n+1),
		nodeEdges: make([]EdgeID, incid),
		edgeOff:   make([]int32, m+1),
		edgeNodes: make([]NodeID, incid),
		nodeLab:   make([]int32, n),
		edgeLab:   make([]int32, m),
		labelID:   make(map[Label]int32),
	}
	for v, l := range h.nodeLabels {
		c.nodeLab[v] = c.intern(l)
	}
	for e := range h.edges {
		c.edgeLab[e] = c.intern(h.edges[e].Label)
	}
	pos := int32(0)
	for e := range h.edges {
		c.edgeOff[e] = pos
		pos += int32(copy(c.edgeNodes[pos:], h.edges[e].Nodes))
	}
	c.edgeOff[m] = pos
	pos = 0
	for v := range h.incidence {
		c.nodeOff[v] = pos
		pos += int32(copy(c.nodeEdges[pos:], h.incidence[v]))
	}
	c.nodeOff[n] = pos
	return c
}

// neighborScan marks NEI(v) = {v} ∪ {u : ∃E, {u,v} ⊆ E} in b and returns
// |NEI(v)|. b must hold NumNodes bits and start cleared. This is the one
// shared scan behind Neighbors and NumNeighbors: it walks the frozen CSR's
// offset ranges when a freeze is current and the mutable slice-of-slices
// otherwise, so construction-time callers never pay for a rebuild.
func (h *Hypergraph) neighborScan(v NodeID, b Bitset) int {
	b.Add(int(v))
	count := 1
	if c := h.frozen(); c != nil {
		for _, e := range c.IncidentEdges(v) {
			for _, u := range c.Members(e) {
				if !b.Has(int(u)) {
					b.Add(int(u))
					count++
				}
			}
		}
		return count
	}
	for _, e := range h.incidence[v] {
		for _, u := range h.edges[e].Nodes {
			if !b.Has(int(u)) {
				b.Add(int(u))
				count++
			}
		}
	}
	return count
}
