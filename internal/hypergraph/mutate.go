package hypergraph

import "fmt"

// RemoveEdge deletes hyperedge e. Hyperedge IDs stay dense: every hyperedge
// with a larger id shifts down by one, exactly as if the graph had been
// rebuilt without e — so a Freeze after the removal is byte-identical to
// freezing a from-scratch construction over the surviving hyperedges in
// order. Incident-edge lists stay ascending (all ids shift uniformly).
//
// Lists that change are reallocated rather than edited in place: a graph's
// incidence lists may be shared with a Clone (an older MVCC generation) or
// alias the CSR arrays FromFrozen decoded, and those must never be written
// through.
func (h *Hypergraph) RemoveEdge(e EdgeID) {
	if int(e) < 0 || int(e) >= h.NumEdges() {
		panic(fmt.Sprintf("hypergraph: RemoveEdge id %d out of range [0,%d)", e, h.NumEdges()))
	}
	h.invalidateDerived()
	h.edges = append(h.edges[:e], h.edges[e+1:]...)
	for v := range h.incidence {
		inc := h.incidence[v]
		// Ascending lists: the last entry is the largest, so a list whose
		// ids are all below e is untouched by both the drop and the shift.
		if len(inc) == 0 || inc[len(inc)-1] < e {
			continue
		}
		out := make([]EdgeID, 0, len(inc))
		for _, id := range inc {
			switch {
			case id == e:
				// dropped
			case id > e:
				out = append(out, id-1)
			default:
				out = append(out, id)
			}
		}
		h.incidence[v] = out
	}
}

// RemoveNode deletes node v: it is first removed from every hyperedge
// containing it (hyperedges may become empty — cardinality-0 hyperedges are
// legal in the paper's edit model and stay), then the node itself is
// deleted. Node IDs stay dense: every node with a larger id shifts down by
// one, so member lists remain strictly ascending and a Freeze after the
// removal matches a from-scratch construction of the surviving graph.
// Removing a node renumbers ids, which invalidates every external per-node
// structure (ego caches, σ memos) wholesale — Batch tracks this as a full
// invalidation.
func (h *Hypergraph) RemoveNode(v NodeID) {
	if int(v) < 0 || int(v) >= h.NumNodes() {
		panic(fmt.Sprintf("hypergraph: RemoveNode id %d out of range [0,%d)", v, h.NumNodes()))
	}
	h.invalidateDerived()
	for i := range h.edges {
		nodes := h.edges[i].Nodes
		// Ascending lists: nothing to drop or shift when all members < v.
		if len(nodes) == 0 || nodes[len(nodes)-1] < v {
			continue
		}
		out := make([]NodeID, 0, len(nodes))
		for _, u := range nodes {
			switch {
			case u == v:
				// dropped
			case u > v:
				out = append(out, u-1)
			default:
				out = append(out, u)
			}
		}
		h.edges[i].Nodes = out
	}
	h.nodeLabels = append(h.nodeLabels[:v], h.nodeLabels[v+1:]...)
	h.incidence = append(h.incidence[:v], h.incidence[v+1:]...)
	if h.origIDs != nil {
		h.origIDs = append(h.origIDs[:v], h.origIDs[v+1:]...)
	}
}
