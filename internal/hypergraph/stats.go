package hypergraph

import (
	"fmt"
	"sort"
)

// Stats summarizes a hypergraph in the shape of Table I of the paper.
type Stats struct {
	Nodes          int     // |V| = n
	Edges          int     // |E| = m
	MeanEdgeSize   float64 // mean of hyperedge cardinalities
	MedianEdgeSize int     // median of hyperedge cardinalities
	NodeLabels     int     // |l(V)|, number of distinct node labels
	EdgeLabels     int     // number of distinct hyperedge labels
	MaxDegree      int
	MeanDegree     float64
	MaxEdgeSize    int
	Incidences     int // total Σ|E|, bipartite edge count
}

// Summarize computes Stats for h. It reads the frozen CSR view: distinct
// label counts are popcounts over bitsets of interned label ids, degrees
// and cardinalities are offset differences.
func Summarize(h *Hypergraph) Stats {
	c := h.Freeze()
	s := Stats{Nodes: c.NumNodes(), Edges: c.NumEdges(), Incidences: c.Incidences()}
	sizes := make([]int, 0, c.NumEdges())
	elabels := NewBitset(c.NumLabels())
	for e := 0; e < c.NumEdges(); e++ {
		sizes = append(sizes, c.Arity(EdgeID(e)))
		elabels.Add(int(c.EdgeLabelID(EdgeID(e))))
	}
	if len(sizes) > 0 {
		sort.Ints(sizes)
		s.MedianEdgeSize = sizes[len(sizes)/2]
		s.MaxEdgeSize = sizes[len(sizes)-1]
		s.MeanEdgeSize = float64(s.Incidences) / float64(len(sizes))
	}
	nlabels := NewBitset(c.NumLabels())
	totalDeg := 0
	for v := 0; v < c.NumNodes(); v++ {
		nlabels.Add(int(c.NodeLabelID(NodeID(v))))
		d := c.Degree(NodeID(v))
		totalDeg += d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.NodeLabels = nlabels.Count()
	s.EdgeLabels = elabels.Count()
	if s.Nodes > 0 {
		s.MeanDegree = float64(totalDeg) / float64(s.Nodes)
	}
	return s
}

// String renders the stats as one Table-I-style row.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d mean|E|=%.1f med|E|=%d |l(V)|=%d",
		s.Nodes, s.Edges, s.MeanEdgeSize, s.MedianEdgeSize, s.NodeLabels)
}
