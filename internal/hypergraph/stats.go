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

// ConnectedComponents returns the node sets of the connected components of h
// (two nodes are connected when they share a hyperedge), each sorted
// ascending, ordered by their smallest member.
func ConnectedComponents(h *Hypergraph) [][]NodeID {
	c := h.Freeze()
	n := c.NumNodes()
	visited := NewBitset(n)
	var comps [][]NodeID
	queue := make([]NodeID, 0, 64)
	for start := 0; start < n; start++ {
		if visited.Has(start) {
			continue
		}
		visited.Add(start)
		queue = append(queue[:0], NodeID(start))
		comp := []NodeID{NodeID(start)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range c.IncidentEdges(v) {
				for _, u := range c.Members(e) {
					if !visited.Has(int(u)) {
						visited.Add(int(u))
						comp = append(comp, u)
						queue = append(queue, u)
					}
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// HopDistances runs a hop-count BFS from src over the hypergraph's co-member
// relation and returns a distance slice (-1 for unreachable nodes). It stops
// expanding beyond maxHops when maxHops >= 0.
func HopDistances(h *Hypergraph, src NodeID, maxHops int) []int {
	c := h.Freeze()
	dist := make([]int, c.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if maxHops >= 0 && dist[v] >= maxHops {
			continue
		}
		for _, e := range c.IncidentEdges(v) {
			for _, u := range c.Members(e) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return dist
}
