package core

import (
	"fmt"
	"strings"

	"hged/internal/hypergraph"
)

// Namer translates node and hyperedge slots, and labels, into human-readable
// names for explanations. Any field may be nil to fall back to numeric
// rendering.
type Namer struct {
	Node  func(slot int) string
	Edge  func(slot int) string
	Label func(l hypergraph.Label) string
}

// EgoNamer names the slots of an edit path from an ego network eu, which
// was extracted from a host graph: eu's nodes by their host ids, its
// hyperedges and every inserted entity by slot.
func EgoNamer(eu *hypergraph.Hypergraph) *Namer {
	return &Namer{
		Node: func(slot int) string {
			if slot < eu.NumNodes() {
				return fmt.Sprintf("node %d", eu.OrigID(hypergraph.NodeID(slot)))
			}
			return fmt.Sprintf("new node #%d", slot)
		},
		Edge: func(slot int) string {
			if slot < eu.NumEdges() {
				return fmt.Sprintf("hyperedge #%d", slot)
			}
			return fmt.Sprintf("new hyperedge #%d", slot)
		},
	}
}

func (n *Namer) node(slot int) string {
	if n != nil && n.Node != nil {
		return n.Node(slot)
	}
	return fmt.Sprintf("node#%d", slot)
}

func (n *Namer) edge(slot int) string {
	if n != nil && n.Edge != nil {
		return n.Edge(slot)
	}
	return fmt.Sprintf("hyperedge#%d", slot)
}

func (n *Namer) label(l hypergraph.Label) string {
	if n != nil && n.Label != nil {
		return n.Label(l)
	}
	return fmt.Sprintf("label %d", l)
}

// Explain renders an edit path as human-readable sentences in the style of
// Section IV-D ("one group changes their interests from orange to grey; the
// remaining people interested in the old topic disappear; ...").
func Explain(p *Path, namer *Namer) []string {
	if p == nil {
		return nil
	}
	lines := make([]string, 0, len(p.Ops))
	for _, op := range p.Ops {
		switch op.Kind {
		case OpNodeInsert:
			lines = append(lines, fmt.Sprintf("a new member %s with %s joins the network",
				namer.node(op.Node), namer.label(op.Label)))
		case OpNodeDelete:
			lines = append(lines, fmt.Sprintf("%s leaves the network", namer.node(op.Node)))
		case OpNodeRelabel:
			lines = append(lines, fmt.Sprintf("%s changes to %s", namer.node(op.Node), namer.label(op.Label)))
		case OpEdgeInsert:
			lines = append(lines, fmt.Sprintf("a new group %s about %s forms",
				namer.edge(op.Edge), namer.label(op.Label)))
		case OpEdgeDelete:
			lines = append(lines, fmt.Sprintf("group %s dissolves", namer.edge(op.Edge)))
		case OpEdgeRelabel:
			lines = append(lines, fmt.Sprintf("group %s changes its interest to %s",
				namer.edge(op.Edge), namer.label(op.Label)))
		case OpEdgeReduce:
			lines = append(lines, fmt.Sprintf("%s leaves group %s", namer.node(op.Node), namer.edge(op.Edge)))
		case OpEdgeExtend:
			lines = append(lines, fmt.Sprintf("%s joins group %s", namer.node(op.Node), namer.edge(op.Edge)))
		}
	}
	return lines
}

// ExplainString joins Explain's sentences into one numbered, newline-
// separated narrative.
func ExplainString(p *Path, namer *Namer) string {
	lines := Explain(p, namer)
	var b strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&b, "(%d) %s\n", i+1, l)
	}
	return b.String()
}
