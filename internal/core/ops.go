// Package core implements Hypergraph Edit Distance (HGED) — the primary
// contribution of Qin et al., ICDE 2023 — together with the explainable
// hypergraph edit path.
//
// The edit model (Definition 3) has three families of unit-cost atomic
// operations:
//
//	(i)   inserting/deleting a node, or a hyperedge of cardinality 0;
//	(ii)  extending/reducing a hyperedge by one node;
//	(iii) relabeling a node or a hyperedge.
//
// HGED(G, G') is the minimum number of operations transforming G into a
// hypergraph isomorphic to G'. The package provides the paper's three
// solvers (HGED-HEU, HGED-DFS, HGED-BFS), exact edit-cost computations per
// node mapping (permutation-based, per Algorithm 2, and Hungarian-based),
// threshold ("≤ τ?") variants, and extraction of an optimal edit path that
// explains the distance.
package core

import (
	"fmt"

	"hged/internal/hypergraph"
)

// OpKind enumerates the atomic edit operations of Definition 3.
type OpKind int

const (
	// OpNodeDelete removes a node (which must no longer belong to any
	// hyperedge) from the graph.
	OpNodeDelete OpKind = iota
	// OpNodeInsert adds a new node with a label.
	OpNodeInsert
	// OpEdgeDelete removes a hyperedge of cardinality 0.
	OpEdgeDelete
	// OpEdgeInsert adds a new hyperedge of cardinality 0 with a label.
	OpEdgeInsert
	// OpEdgeReduce removes one node from a hyperedge.
	OpEdgeReduce
	// OpEdgeExtend adds one node to a hyperedge.
	OpEdgeExtend
	// OpNodeRelabel changes the label of a node.
	OpNodeRelabel
	// OpEdgeRelabel changes the label of a hyperedge.
	OpEdgeRelabel
)

// String returns the operation kind name.
func (k OpKind) String() string {
	switch k {
	case OpNodeDelete:
		return "node-delete"
	case OpNodeInsert:
		return "node-insert"
	case OpEdgeDelete:
		return "edge-delete"
	case OpEdgeInsert:
		return "edge-insert"
	case OpEdgeReduce:
		return "edge-reduce"
	case OpEdgeExtend:
		return "edge-extend"
	case OpNodeRelabel:
		return "node-relabel"
	case OpEdgeRelabel:
		return "edge-relabel"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one atomic edit operation. Node and Edge refer to *slots* of the
// padded source graph: slots < n are the source graph's own nodes/hyperedges;
// slots ≥ n denote entities created by insertion operations earlier in the
// path. Label carries the new label for insert/relabel operations.
type Op struct {
	Kind  OpKind
	Node  int              // node slot (for node ops and extend/reduce)
	Edge  int              // edge slot (for edge ops and extend/reduce)
	Label hypergraph.Label // new label for inserts/relabels
}

// String renders the operation.
func (o Op) String() string {
	switch o.Kind {
	case OpNodeDelete:
		return fmt.Sprintf("delete node #%d", o.Node)
	case OpNodeInsert:
		return fmt.Sprintf("insert node #%d with label %d", o.Node, o.Label)
	case OpEdgeDelete:
		return fmt.Sprintf("delete hyperedge #%d", o.Edge)
	case OpEdgeInsert:
		return fmt.Sprintf("insert hyperedge #%d with label %d", o.Edge, o.Label)
	case OpEdgeReduce:
		return fmt.Sprintf("reduce hyperedge #%d by node #%d", o.Edge, o.Node)
	case OpEdgeExtend:
		return fmt.Sprintf("extend hyperedge #%d with node #%d", o.Edge, o.Node)
	case OpNodeRelabel:
		return fmt.Sprintf("relabel node #%d to %d", o.Node, o.Label)
	case OpEdgeRelabel:
		return fmt.Sprintf("relabel hyperedge #%d to %d", o.Edge, o.Label)
	default:
		return o.Kind.String()
	}
}

// Path is a hypergraph edit path: a sequence of atomic operations that
// transforms the source hypergraph into one isomorphic to the target
// (Section IV-D). Cost() equals the number of operations; for a path
// extracted from an optimal mapping this equals the HGED.
type Path struct {
	Ops []Op
	// Mapping is the entity mapping the path was derived from.
	Mapping Mapping
}

// Cost returns the number of operations on the path — its total cost under
// the paper's unit model.
func (p *Path) Cost() int { return len(p.Ops) }

// Apply executes the path on a copy of g and returns the edited hypergraph.
// Node/edge slots beyond g's size are materialized by insertion operations.
// Applying the path extracted for HGED(g, h) yields a hypergraph isomorphic
// to h; tests rely on this as the central correctness property.
func (p *Path) Apply(g *hypergraph.Hypergraph) (*hypergraph.Hypergraph, error) {
	n, m := g.NumNodes(), g.NumEdges()
	// Working state: presence flags, labels, and member sets per slot.
	maxNode, maxEdge := n, m
	for _, op := range p.Ops {
		if op.Node+1 > maxNode && (op.Kind == OpNodeInsert || op.Kind == OpNodeDelete || op.Kind == OpNodeRelabel || op.Kind == OpEdgeReduce || op.Kind == OpEdgeExtend) {
			maxNode = op.Node + 1
		}
		if op.Edge+1 > maxEdge && (op.Kind != OpNodeInsert && op.Kind != OpNodeDelete && op.Kind != OpNodeRelabel) {
			maxEdge = op.Edge + 1
		}
	}
	nodeAlive := make([]bool, maxNode)
	nodeLabel := make([]hypergraph.Label, maxNode)
	for i := 0; i < n; i++ {
		nodeAlive[i] = true
		nodeLabel[i] = g.NodeLabel(hypergraph.NodeID(i))
	}
	edgeAlive := make([]bool, maxEdge)
	edgeLabel := make([]hypergraph.Label, maxEdge)
	// Member sets are bitsets over the node slots, with a cardinality side
	// array (popcounting on every delete check would be wasteful). A nil
	// bitset marks a slot no insertion has materialized yet.
	members := make([]hypergraph.Bitset, maxEdge)
	cards := make([]int, maxEdge)
	for e := 0; e < m; e++ {
		edgeAlive[e] = true
		edge := g.Edge(hypergraph.EdgeID(e))
		edgeLabel[e] = edge.Label
		members[e] = hypergraph.NewBitset(maxNode)
		for _, v := range edge.Nodes {
			members[e].Add(int(v))
		}
		cards[e] = edge.Arity()
	}

	for i, op := range p.Ops {
		switch op.Kind {
		case OpNodeInsert:
			if op.Node < len(nodeAlive) && nodeAlive[op.Node] {
				return nil, fmt.Errorf("core: op %d inserts existing node %d", i, op.Node)
			}
			nodeAlive[op.Node] = true
			nodeLabel[op.Node] = op.Label
		case OpNodeDelete:
			if !nodeAlive[op.Node] {
				return nil, fmt.Errorf("core: op %d deletes absent node %d", i, op.Node)
			}
			for e, ms := range members {
				if ms != nil && edgeAlive[e] && ms.Has(op.Node) {
					return nil, fmt.Errorf("core: op %d deletes node %d still in hyperedge %d", i, op.Node, e)
				}
			}
			nodeAlive[op.Node] = false
		case OpNodeRelabel:
			if !nodeAlive[op.Node] {
				return nil, fmt.Errorf("core: op %d relabels absent node %d", i, op.Node)
			}
			nodeLabel[op.Node] = op.Label
		case OpEdgeInsert:
			if op.Edge < len(edgeAlive) && edgeAlive[op.Edge] {
				return nil, fmt.Errorf("core: op %d inserts existing hyperedge %d", i, op.Edge)
			}
			edgeAlive[op.Edge] = true
			edgeLabel[op.Edge] = op.Label
			members[op.Edge] = hypergraph.NewBitset(maxNode)
			cards[op.Edge] = 0
		case OpEdgeDelete:
			if !edgeAlive[op.Edge] {
				return nil, fmt.Errorf("core: op %d deletes absent hyperedge %d", i, op.Edge)
			}
			if cards[op.Edge] != 0 {
				return nil, fmt.Errorf("core: op %d deletes non-empty hyperedge %d (cardinality %d)", i, op.Edge, cards[op.Edge])
			}
			edgeAlive[op.Edge] = false
		case OpEdgeReduce:
			if !edgeAlive[op.Edge] {
				return nil, fmt.Errorf("core: op %d reduces absent hyperedge %d", i, op.Edge)
			}
			if !members[op.Edge].Has(op.Node) {
				return nil, fmt.Errorf("core: op %d reduces hyperedge %d by non-member node %d", i, op.Edge, op.Node)
			}
			members[op.Edge].Remove(op.Node)
			cards[op.Edge]--
		case OpEdgeExtend:
			if !edgeAlive[op.Edge] {
				return nil, fmt.Errorf("core: op %d extends absent hyperedge %d", i, op.Edge)
			}
			if !nodeAlive[op.Node] {
				return nil, fmt.Errorf("core: op %d extends hyperedge %d with absent node %d", i, op.Edge, op.Node)
			}
			if members[op.Edge].Has(op.Node) {
				return nil, fmt.Errorf("core: op %d extends hyperedge %d with duplicate node %d", i, op.Edge, op.Node)
			}
			members[op.Edge].Add(op.Node)
			cards[op.Edge]++
		case OpEdgeRelabel:
			if !edgeAlive[op.Edge] {
				return nil, fmt.Errorf("core: op %d relabels absent hyperedge %d", i, op.Edge)
			}
			edgeLabel[op.Edge] = op.Label
		default:
			return nil, fmt.Errorf("core: op %d has unknown kind %v", i, op.Kind)
		}
	}

	// Materialize surviving state as a fresh hypergraph.
	out := hypergraph.New(0)
	remap := make([]hypergraph.NodeID, maxNode)
	for i := range remap {
		remap[i] = -1
	}
	for i := 0; i < maxNode; i++ {
		if nodeAlive[i] {
			remap[i] = out.AddNode(nodeLabel[i])
		}
	}
	for e := 0; e < maxEdge; e++ {
		if !edgeAlive[e] {
			continue
		}
		// Bitset iteration is ascending by original id, so the rebuilt
		// hypergraph is identical run to run with no sort.
		nodes := make([]hypergraph.NodeID, 0, cards[e])
		missing := -1
		members[e].ForEach(func(v int) {
			if remap[v] < 0 {
				if missing < 0 {
					missing = v
				}
				return
			}
			nodes = append(nodes, remap[v])
		})
		if missing >= 0 {
			return nil, fmt.Errorf("core: hyperedge %d references deleted node %d", e, missing)
		}
		out.AddEdge(edgeLabel[e], nodes...)
	}
	return out, nil
}
