package hypergraph

import "sort"

// Bipartite is the bipartite incidence-graph view of a hypergraph (Fig. 1(b)
// of the paper): the left part holds the hypergraph's nodes, the right part
// holds one vertex per hyperedge, and an edge (v, E) exists iff v ∈ E.
//
// HGED on a hypergraph is equivalent to a constrained GED on this bipartite
// view (Section III "Hardness discussions"), which the bipartite-based EDC
// computation of Algorithm 2 exploits.
type Bipartite struct {
	// NodeLabels[i] is the label of left vertex i (hypergraph node i).
	NodeLabels []Label
	// EdgeLabels[j] is the label of right vertex j (hyperedge j).
	EdgeLabels []Label
	// Adj[j] lists the left vertices incident to right vertex j, ascending.
	Adj [][]NodeID
	// NodeAdj[i] lists the right vertices incident to left vertex i,
	// ascending.
	NodeAdj [][]EdgeID
}

// ToBipartite builds the bipartite incidence view of h.
func ToBipartite(h *Hypergraph) *Bipartite {
	n, m := h.NumNodes(), h.NumEdges()
	b := &Bipartite{
		NodeLabels: make([]Label, n),
		EdgeLabels: make([]Label, m),
		Adj:        make([][]NodeID, m),
		NodeAdj:    make([][]EdgeID, n),
	}
	for i := range b.NodeLabels {
		b.NodeLabels[i] = h.NodeLabel(NodeID(i))
	}
	for j := 0; j < m; j++ {
		e := h.Edge(EdgeID(j))
		b.EdgeLabels[j] = e.Label
		b.Adj[j] = append([]NodeID(nil), e.Nodes...)
	}
	for i := 0; i < n; i++ {
		adj := append([]EdgeID(nil), h.IncidentEdges(NodeID(i))...)
		sort.Slice(adj, func(x, y int) bool { return adj[x] < adj[y] })
		b.NodeAdj[i] = adj
	}
	return b
}
