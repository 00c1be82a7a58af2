// Package hypergraph implements the labeled, simple, undirected hypergraph
// model of Qin et al., "Explainable Hyperlink Prediction: A Hypergraph Edit
// Distance-Based Approach" (ICDE 2023), Section III.
//
// A hypergraph G = (V, E, l) has a node set V, a set of hyperedges E where
// each hyperedge is an unordered set of nodes, and a labeling function l
// assigning every node and every hyperedge a label. Hyperedge node lists are
// kept sorted in ascending order, mirroring the paper's convention.
package hypergraph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node within a hypergraph. IDs are dense: a hypergraph
// with n nodes uses IDs 0..n-1.
type NodeID int32

// EdgeID identifies a hyperedge within a hypergraph. IDs are dense: a
// hypergraph with m hyperedges uses IDs 0..m-1.
type EdgeID int32

// Label is a label drawn from the alphabet Σ. Labels of nodes and hyperedges
// share one space so that ego networks extracted from the same host graph
// remain comparable.
type Label int32

// NoLabel is the zero label, used for unlabeled graphs.
const NoLabel Label = 0

// Hyperedge is an unordered set of nodes with a label. Nodes are stored in
// ascending NodeID order.
type Hyperedge struct {
	Label Label
	Nodes []NodeID
}

// Arity returns the cardinality |E| of the hyperedge.
func (e Hyperedge) Arity() int { return len(e.Nodes) }

// Contains reports whether v is a member of the hyperedge, using binary
// search over the sorted node list.
func (e Hyperedge) Contains(v NodeID) bool {
	i := sort.Search(len(e.Nodes), func(i int) bool { return e.Nodes[i] >= v })
	return i < len(e.Nodes) && e.Nodes[i] == v
}

// Key returns a canonical string key for the node set (ignoring the label),
// usable as a map key for deduplication.
func (e Hyperedge) Key() string {
	return string(e.AppendKey(make([]byte, 0, len(e.Nodes)*4)))
}

// AppendKey appends the canonical node-set key to b and returns the
// extended slice. Dedup loops pass a reused scratch buffer and probe their
// map with string(b) directly, so the per-call string allocation of Key is
// paid only when a key is actually inserted.
func (e Hyperedge) AppendKey(b []byte) []byte {
	for _, v := range e.Nodes {
		b = appendVarint(b, uint32(v))
	}
	return b
}

func appendVarint(b []byte, x uint32) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// Hypergraph is a labeled simple undirected hypergraph. The zero value is an
// empty hypergraph ready to use; nodes are added with AddNode/AddNodes and
// hyperedges with AddEdge.
type Hypergraph struct {
	nodeLabels []Label
	edges      []Hyperedge
	// incidence[v] lists the hyperedges containing v, in insertion order.
	incidence [][]EdgeID
	// origIDs, when non-nil, maps local NodeIDs back to the node IDs of a
	// host graph this hypergraph was induced from. See InducedSubgraph.
	origIDs []NodeID
	// egoMu guards the derived read-only views below: the memoized ego
	// networks and the frozen CSR layout. Both are invalidated by every
	// mutation; Clone shares the CSR but never the ego cache.
	egoMu    sync.RWMutex
	egoCache map[NodeID]*Hypergraph
	csr      *CSR
}

// New returns an empty hypergraph with n unlabeled nodes.
func New(n int) *Hypergraph {
	h := &Hypergraph{
		nodeLabels: make([]Label, n),
		incidence:  make([][]EdgeID, n),
	}
	return h
}

// NewLabeled returns a hypergraph whose node i carries labels[i].
func NewLabeled(labels []Label) *Hypergraph {
	h := New(len(labels))
	copy(h.nodeLabels, labels)
	return h
}

// NumNodes returns |V|.
func (h *Hypergraph) NumNodes() int {
	return len(h.nodeLabels)
}

// NumEdges returns |E|.
func (h *Hypergraph) NumEdges() int {
	return len(h.edges)
}

// AddNode appends a node with the given label and returns its id.
func (h *Hypergraph) AddNode(l Label) NodeID {
	h.invalidateDerived()
	h.nodeLabels = append(h.nodeLabels, l)
	h.incidence = append(h.incidence, nil)
	return NodeID(len(h.nodeLabels) - 1)
}

// AddNodes appends n unlabeled nodes and returns the id of the first.
func (h *Hypergraph) AddNodes(n int) NodeID {
	first := NodeID(len(h.nodeLabels))
	for i := 0; i < n; i++ {
		h.AddNode(NoLabel)
	}
	return first
}

// AddEdge adds a hyperedge with the given label over the given nodes and
// returns its id. The node list is copied, sorted and deduplicated. Adding an
// empty hyperedge is legal (the paper's edit model explicitly includes
// hyperedges of cardinality 0). AddEdge panics if any node id is out of
// range.
func (h *Hypergraph) AddEdge(l Label, nodes ...NodeID) EdgeID {
	h.invalidateDerived()
	ns := make([]NodeID, len(nodes))
	copy(ns, nodes)
	slices.Sort(ns)
	ns = dedupSorted(ns)
	for _, v := range ns {
		if int(v) < 0 || int(v) >= len(h.nodeLabels) {
			panic(fmt.Sprintf("hypergraph: AddEdge node %d out of range [0,%d)", v, len(h.nodeLabels)))
		}
	}
	id := EdgeID(len(h.edges))
	h.edges = append(h.edges, Hyperedge{Label: l, Nodes: ns})
	for _, v := range ns {
		h.incidence[v] = append(h.incidence[v], id)
	}
	return id
}

func dedupSorted(ns []NodeID) []NodeID {
	if len(ns) < 2 {
		return ns
	}
	w := 1
	for i := 1; i < len(ns); i++ {
		if ns[i] != ns[i-1] {
			ns[w] = ns[i]
			w++
		}
	}
	return ns[:w]
}

// NodeLabel returns l(v).
func (h *Hypergraph) NodeLabel(v NodeID) Label {
	return h.nodeLabels[v]
}

// SetNodeLabel sets l(v).
func (h *Hypergraph) SetNodeLabel(v NodeID, l Label) {
	h.invalidateDerived()
	h.nodeLabels[v] = l
}

// EdgeLabel returns l(E).
func (h *Hypergraph) EdgeLabel(e EdgeID) Label {
	return h.edges[e].Label
}

// SetEdgeLabel sets l(E).
func (h *Hypergraph) SetEdgeLabel(e EdgeID, l Label) {
	h.invalidateDerived()
	h.edges[e].Label = l
}

// Edge returns the hyperedge with id e. The returned value shares its node
// slice with the hypergraph; callers must not mutate it.
func (h *Hypergraph) Edge(e EdgeID) Hyperedge {
	return h.edges[e]
}

// Edges returns all hyperedges. The slice and the contained node lists are
// shared with the hypergraph; callers must not mutate them.
func (h *Hypergraph) Edges() []Hyperedge { return h.edges }

// IncidentEdges returns the ids of hyperedges containing v. The returned
// slice is shared with the hypergraph; callers must not mutate it.
func (h *Hypergraph) IncidentEdges(v NodeID) []EdgeID {
	return h.incidence[v]
}

// Degree returns DEG(v) = |{E : v ∈ E}|, the number of hyperedges containing
// v.
func (h *Hypergraph) Degree(v NodeID) int {
	return len(h.incidence[v])
}

// Neighbors returns NEI(v) = {v} ∪ {u : ∃E, {u,v} ⊆ E}, sorted ascending.
// Per Definition 1 of the paper, the set always includes v itself.
// Membership is tracked in a bitset, so the output is ascending by
// construction — no per-call map or sort.
func (h *Hypergraph) Neighbors(v NodeID) []NodeID {
	seen := NewBitset(h.NumNodes())
	count := h.neighborScan(v, seen)
	out := make([]NodeID, 0, count)
	seen.ForEach(func(u int) { out = append(out, NodeID(u)) })
	return out
}

// NumNeighbors returns |NEI(v)| without materializing the sorted slice.
func (h *Hypergraph) NumNeighbors(v NodeID) int {
	return h.neighborScan(v, NewBitset(h.NumNodes()))
}

// OrigID maps a node of an induced sub-hypergraph back to the node id it had
// in the host graph it was induced from. For hypergraphs that were not
// induced, OrigID is the identity.
func (h *Hypergraph) OrigID(v NodeID) NodeID {
	if h.origIDs == nil {
		return v
	}
	return h.origIDs[v]
}

// InducedSubgraph returns G_S, the sub-hypergraph induced by node set S: its
// nodes are S (relabeled 0..|S|-1 in ascending original order) and its
// hyperedges are exactly the hyperedges of h fully contained in S, in
// ascending host id order. The result records original ids, retrievable
// via OrigID.
//
// Membership in S is a binary search over the sorted set. All hyperedge
// member lists share one arena and all incidence lists another, each handed
// out as a capacity-capped subslice: an append through the mutation API
// reallocates instead of writing into a neighbor's range, and removals
// reallocate the lists they change.
func (h *Hypergraph) InducedSubgraph(s []NodeID) *Hypergraph {
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	sorted = dedupSorted(sorted)

	n := len(sorted)
	sub := &Hypergraph{
		nodeLabels: make([]Label, n),
		incidence:  make([][]EdgeID, n),
		origIDs:    make([]NodeID, n),
	}
	for i, v := range sorted {
		sub.nodeLabels[i] = h.NodeLabel(v)
		sub.origIDs[i] = h.OrigID(v)
	}

	// Collect candidate hyperedges once via incidence lists so the cost is
	// proportional to the edges touching S, not |E|; the bitset yields them
	// in ascending id order without a sort. Candidates with a member
	// outside S are dropped from the set, which leaves exactly the kept
	// hyperedges and sizes both arenas.
	kept := NewBitset(h.NumEdges())
	for _, v := range sorted {
		for _, e := range h.IncidentEdges(v) {
			kept.Add(int(e))
		}
	}
	numEdges, numMembers := 0, 0
	kept.ForEach(func(ei int) {
		members := h.Edge(EdgeID(ei)).Nodes
		for _, u := range members {
			if _, ok := slices.BinarySearch(sorted, u); !ok {
				kept.Remove(ei)
				return
			}
		}
		numEdges++
		numMembers += len(members)
	})
	if numEdges == 0 {
		return sub
	}

	sub.edges = make([]Hyperedge, 0, numEdges)
	memberArena := make([]NodeID, numMembers)
	degree := make([]int32, n+1) // degree[i+1] counts local node i
	off := 0
	kept.ForEach(func(ei int) {
		edge := h.Edge(EdgeID(ei))
		end := off + len(edge.Nodes)
		local := memberArena[off:end:end]
		for k, u := range edge.Nodes {
			i, _ := slices.BinarySearch(sorted, u)
			local[k] = NodeID(i)
			degree[i+1]++
		}
		off = end
		sub.edges = append(sub.edges, Hyperedge{Label: edge.Label, Nodes: local})
	})

	// Incidence lists in edge insertion (ascending id) order: offsets are
	// the degree prefix sums, filled by one walk over the kept edges.
	for i := 1; i <= n; i++ {
		degree[i] += degree[i-1]
	}
	incArena := make([]EdgeID, numMembers)
	fill := slices.Clone(degree[:n])
	for id, e := range sub.edges {
		for _, v := range e.Nodes {
			incArena[fill[v]] = EdgeID(id)
			fill[v]++
		}
	}
	for i := 0; i < n; i++ {
		if a, b := degree[i], degree[i+1]; a < b {
			sub.incidence[i] = incArena[a:b:b]
		}
	}
	return sub
}

// egoCacheLimit bounds the memoized ego networks per hypergraph; past it,
// an arbitrary entry is evicted to admit the new one.
const egoCacheLimit = 8192

// Ego returns EGO(v), the ego network of v: the sub-hypergraph induced by
// NEI(v) (Definition 1).
//
// Results are memoized: repeated calls for the same node on an unmodified
// hypergraph return the same instance, so the HEP predictor, NodeDistance
// and batch matrices stop re-extracting identical sub-hypergraphs. The
// returned ego is shared — callers must treat it as immutable (every
// in-repo caller only reads it). Any mutation of h invalidates the cache.
func (h *Hypergraph) Ego(v NodeID) *Hypergraph {
	h.egoMu.RLock()
	ego := h.egoCache[v]
	h.egoMu.RUnlock()
	if ego != nil {
		return ego
	}
	ego = h.InducedSubgraph(h.Neighbors(v))
	h.egoMu.Lock()
	if cached := h.egoCache[v]; cached != nil {
		ego = cached // lost the race: keep the canonical instance
	} else {
		if h.egoCache == nil {
			h.egoCache = make(map[NodeID]*Hypergraph)
		} else if len(h.egoCache) >= egoCacheLimit {
			for k := range h.egoCache {
				delete(h.egoCache, k)
				break
			}
		}
		h.egoCache[v] = ego
	}
	h.egoMu.Unlock()
	return ego
}

// invalidateDerived discards the derived read-only views — memoized egos
// and the frozen CSR — on any mutation; both rebuild lazily on next use.
func (h *Hypergraph) invalidateDerived() {
	h.egoMu.Lock()
	if len(h.egoCache) > 0 {
		clear(h.egoCache)
	}
	h.csr = nil
	h.egoMu.Unlock()
}

// Clone returns a copy of the hypergraph that is independent under the
// mutation API. The clone owns its label array and its hyperedge and
// incidence headers; the member and incidence lists themselves are shared,
// capacity-capped so an append reallocates, and every mutator reallocates
// a list it changes rather than editing it in place. A current CSR view is
// shared too, so freezing an unmutated clone builds nothing. Cost is
// O(|V|+|E|) header copies.
func (h *Hypergraph) Clone() *Hypergraph {
	c := &Hypergraph{
		nodeLabels: slices.Clone(h.nodeLabels),
		edges:      make([]Hyperedge, len(h.edges)),
		incidence:  make([][]EdgeID, len(h.incidence)),
		origIDs:    slices.Clone(h.origIDs),
		csr:        h.frozen(),
	}
	for i, e := range h.edges {
		c.edges[i] = Hyperedge{Label: e.Label, Nodes: e.Nodes[:len(e.Nodes):len(e.Nodes)]}
	}
	for v, inc := range h.incidence {
		c.incidence[v] = inc[:len(inc):len(inc)]
	}
	return c
}

// Validate checks structural invariants: hyperedge node lists sorted, unique
// and in range, and incidence lists consistent with edges. It returns the
// first violation found, or nil.
func (h *Hypergraph) Validate() error {
	n := len(h.nodeLabels)
	if len(h.incidence) != n {
		return fmt.Errorf("hypergraph: incidence length %d != node count %d", len(h.incidence), n)
	}
	counts := make(map[NodeID]int)
	for id, e := range h.edges {
		for i, v := range e.Nodes {
			if int(v) < 0 || int(v) >= n {
				return fmt.Errorf("hypergraph: edge %d node %d out of range", id, v)
			}
			if i > 0 && e.Nodes[i-1] >= v {
				return fmt.Errorf("hypergraph: edge %d nodes not sorted/unique at index %d", id, i)
			}
			counts[v]++
		}
	}
	for v, inc := range h.incidence {
		if counts[NodeID(v)] != len(inc) {
			return fmt.Errorf("hypergraph: node %d incidence count %d != membership count %d", v, len(inc), counts[NodeID(v)])
		}
		for _, e := range inc {
			if int(e) < 0 || int(e) >= len(h.edges) {
				return fmt.Errorf("hypergraph: node %d incident edge %d out of range", v, e)
			}
			if !h.edges[e].Contains(NodeID(v)) {
				return fmt.Errorf("hypergraph: node %d listed incident to edge %d but not a member", v, e)
			}
		}
	}
	return nil
}

// String returns a compact human-readable rendering, e.g.
// "H(n=3,m=2){0:[0 1]@1 1:[1 2]@2}".
func (h *Hypergraph) String() string {
	s := fmt.Sprintf("H(n=%d,m=%d){", h.NumNodes(), h.NumEdges())
	for i := 0; i < h.NumEdges(); i++ {
		e := h.Edge(EdgeID(i))
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%v@%d", i, e.Nodes, e.Label)
	}
	return s + "}"
}
