// Package names provides a string-keyed builder over the integer-indexed
// hypergraph model: nodes, labels and hyperedges are addressed by names,
// which the builder interns into dense ids. It is the convenient front door
// for hand-authored graphs (examples, tools, tests).
package names

import (
	"fmt"
	"sort"

	"hged/internal/hypergraph"
)

// Builder accumulates a named hypergraph. The zero value is not ready;
// use NewBuilder.
type Builder struct {
	g          *hypergraph.Hypergraph
	nodeByName map[string]hypergraph.NodeID
	nodeNames  []string
	labelByKey map[string]hypergraph.Label
	labelNames map[hypergraph.Label]string
}

// NewBuilder returns an empty named-hypergraph builder.
func NewBuilder() *Builder {
	return &Builder{
		g:          hypergraph.New(0),
		nodeByName: make(map[string]hypergraph.NodeID),
		labelByKey: make(map[string]hypergraph.Label),
		labelNames: make(map[hypergraph.Label]string),
	}
}

// Label interns a label name and returns its id. The empty name is the
// zero label.
func (b *Builder) Label(name string) hypergraph.Label {
	if name == "" {
		return hypergraph.NoLabel
	}
	if l, ok := b.labelByKey[name]; ok {
		return l
	}
	l := hypergraph.Label(len(b.labelByKey) + 1)
	b.labelByKey[name] = l
	b.labelNames[l] = name
	return l
}

// Node returns the id of the named node, creating it unlabeled on first
// use.
func (b *Builder) Node(name string) hypergraph.NodeID {
	if v, ok := b.nodeByName[name]; ok {
		return v
	}
	v := b.g.AddNode(hypergraph.NoLabel)
	b.nodeByName[name] = v
	b.nodeNames = append(b.nodeNames, name)
	return v
}

// LabeledNode creates or retrieves the named node and sets its label.
func (b *Builder) LabeledNode(name, label string) hypergraph.NodeID {
	v := b.Node(name)
	b.g.SetNodeLabel(v, b.Label(label))
	return v
}

// Edge adds a hyperedge with the given label name over the named nodes
// (created on demand) and returns its id.
func (b *Builder) Edge(label string, nodes ...string) hypergraph.EdgeID {
	ids := make([]hypergraph.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = b.Node(n)
	}
	return b.g.AddEdge(b.Label(label), ids...)
}

// Graph returns the built hypergraph. The builder may keep adding to it
// afterwards; take a Clone for isolation.
func (b *Builder) Graph() *hypergraph.Hypergraph { return b.g }

// NodeName returns the name of node v, or a numeric fallback.
func (b *Builder) NodeName(v hypergraph.NodeID) string {
	if int(v) >= 0 && int(v) < len(b.nodeNames) {
		return b.nodeNames[v]
	}
	return fmt.Sprintf("node#%d", v)
}

// NodeID returns the id of the named node and whether it exists.
func (b *Builder) NodeID(name string) (hypergraph.NodeID, bool) {
	v, ok := b.nodeByName[name]
	return v, ok
}

// LabelName returns the name a label was interned from, or a numeric
// fallback.
func (b *Builder) LabelName(l hypergraph.Label) string {
	if l == hypergraph.NoLabel {
		return ""
	}
	if n, ok := b.labelNames[l]; ok {
		return n
	}
	return fmt.Sprintf("label#%d", l)
}

// Names returns all node names, sorted.
func (b *Builder) Names() []string {
	out := append([]string(nil), b.nodeNames...)
	sort.Strings(out)
	return out
}
