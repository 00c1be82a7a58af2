// Package dataset provides the six hypergraphs of the paper's evaluation
// (Table I) as seeded synthetic replicas, plus the 3:1 train/validation
// hyperedge split of the "Goodness metrics" protocol.
//
// The paper's datasets come from https://www.cs.cornell.edu/~arb/data/; the
// module is offline, so each dataset is replicated by the planted-community
// generator with the paper's summary statistics (node count, hyperedge
// count, mean and median hyperedge size, node-label classes). The large
// datasets are replicated at reduced scale by default — exact HGED on
// multi-million-edge hypergraphs needs the paper's hours-long budget — with
// the scale factor recorded on the Spec and applied multiplicatively; the
// full-scale statistics remain available as Paper* fields for Table I.
package dataset

import (
	"fmt"
	"math"

	"hged/internal/gen"
	"hged/internal/hypergraph"
)

// Spec describes one dataset: the paper's statistics and the default
// replica scale.
type Spec struct {
	Name        string
	Description string
	// Paper statistics (Table I).
	PaperNodes  int
	PaperEdges  int
	PaperMean   float64 // mean hyperedge size
	PaperMedian int     // median hyperedge size
	PaperLabels int     // |l(V)|
	// DefaultScale is the fraction of the paper's size the default replica
	// uses (applied to both nodes and hyperedges, with floors).
	DefaultScale float64
	// EdgeScale additionally scales the hyperedge count relative to the
	// node count (0 means 1). The small contact datasets (PS, HS) keep all
	// their nodes but a tenth of their very many hyperedges, so replica
	// density — and therefore ego-network size — stays realistic at every
	// scale.
	EdgeScale float64
	// Seed for deterministic generation.
	Seed int64
}

// Registry lists the six datasets in the paper's order.
var Registry = []Spec{
	{
		Name:        "PS",
		Description: "primary school contact groups; labels are teacher/classroom",
		PaperNodes:  242, PaperEdges: 12704, PaperMean: 2.4, PaperMedian: 2, PaperLabels: 11,
		DefaultScale: 1.0, EdgeScale: 0.10, Seed: 101,
	},
	{
		Name:        "HS",
		Description: "high school contact groups; labels are classrooms",
		PaperNodes:  327, PaperEdges: 7818, PaperMean: 2.3, PaperMedian: 2, PaperLabels: 9,
		DefaultScale: 1.0, EdgeScale: 0.10, Seed: 102,
	},
	{
		Name:        "MO",
		Description: "MathOverflow questions answered by users; labels are question tags",
		PaperNodes:  73851, PaperEdges: 5446, PaperMean: 24.2, PaperMedian: 5, PaperLabels: 1456,
		DefaultScale: 0.02, Seed: 103,
	},
	{
		Name:        "WM",
		Description: "Walmart shopping trips; labels are product departments",
		PaperNodes:  88860, PaperEdges: 69906, PaperMean: 6.6, PaperMedian: 5, PaperLabels: 11,
		DefaultScale: 0.01, Seed: 104,
	},
	{
		Name:        "TVG",
		Description: "Trivago browsing sessions; labels are accommodation countries",
		PaperNodes:  172738, PaperEdges: 233202, PaperMean: 4.1, PaperMedian: 3, PaperLabels: 160,
		DefaultScale: 0.005, Seed: 105,
	},
	{
		Name:        "AMZ",
		Description: "Amazon product reviews; labels are product categories",
		PaperNodes:  2268231, PaperEdges: 4285363, PaperMean: 17.1, PaperMedian: 8, PaperLabels: 29,
		DefaultScale: 0.001, Seed: 106,
	},
}

// Lookup returns the Spec with the given (case-sensitive) name.
func Lookup(name string) (Spec, error) {
	for _, s := range Registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Names returns the registry's dataset names in order.
func Names() []string {
	out := make([]string, len(Registry))
	for i, s := range Registry {
		out[i] = s.Name
	}
	return out
}

// ReplicaNodes returns the node count of the replica at the given scale.
func (s Spec) ReplicaNodes(scale float64) int {
	n := int(math.Round(float64(s.PaperNodes) * scale))
	if n < 40 {
		n = 40
	}
	return n
}

// ReplicaEdges returns the hyperedge count of the replica at the given
// scale.
func (s Spec) ReplicaEdges(scale float64) int {
	es := s.EdgeScale
	if es == 0 {
		es = 1
	}
	m := int(math.Round(float64(s.PaperEdges) * scale * es))
	if m < 60 {
		m = 60
	}
	return m
}

// Replica generates the synthetic replica at the given scale; scale ≤ 0
// selects the spec's default. Labels classes are capped at the replica's
// node count.
func (s Spec) Replica(scale float64) (*hypergraph.Hypergraph, error) {
	if scale <= 0 {
		scale = s.DefaultScale
	}
	nodes := s.ReplicaNodes(scale)
	labels := s.PaperLabels
	if labels > nodes/2 {
		labels = nodes / 2
		if labels < 2 {
			labels = 2
		}
	}
	maxSize := int(4 * s.PaperMean)
	if maxSize > nodes/2 {
		maxSize = nodes / 2
	}
	g, _, err := gen.PlantedCommunities(gen.Config{
		Nodes:          nodes,
		Edges:          s.ReplicaEdges(scale),
		MeanEdgeSize:   s.PaperMean,
		MedianEdgeSize: s.PaperMedian,
		MaxEdgeSize:    maxSize,
		NodeLabelCount: labels,
		EdgeLabelCount: labels,
		Seed:           s.Seed,
	})
	return g, err
}

// Split divides g's hyperedges into a training hypergraph and a held-out
// validation set with the given train fraction (the paper uses 3:1, i.e.
// 0.75), deterministically by seed. The training graph keeps all nodes.
func Split(g *hypergraph.Hypergraph, trainFrac float64, seed int64) (*hypergraph.Hypergraph, []hypergraph.Hyperedge, error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: train fraction %v out of (0,1)", trainFrac)
	}
	if seed == 0 {
		seed = 1
	}
	m := g.NumEdges()
	perm := permFromSeed(m, seed)
	trainCount := int(math.Round(float64(m) * trainFrac))
	trainSet := make(map[int]struct{}, trainCount)
	for _, e := range perm[:trainCount] {
		trainSet[e] = struct{}{}
	}

	labels := make([]hypergraph.Label, g.NumNodes())
	for v := range labels {
		labels[v] = g.NodeLabel(hypergraph.NodeID(v))
	}
	train := hypergraph.NewLabeled(labels)
	var held []hypergraph.Hyperedge
	for e := 0; e < m; e++ {
		edge := g.Edge(hypergraph.EdgeID(e))
		if _, ok := trainSet[e]; ok {
			train.AddEdge(edge.Label, edge.Nodes...)
		} else {
			nodes := append([]hypergraph.NodeID(nil), edge.Nodes...)
			held = append(held, hypergraph.Hyperedge{Label: edge.Label, Nodes: nodes})
		}
	}
	return train, held, nil
}

// permFromSeed is a deterministic permutation of 0..n-1 via a seeded
// Fisher–Yates using splitmix64, independent of math/rand's evolution.
func permFromSeed(n int, seed int64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	x := uint64(seed)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// TableRow renders the paper-vs-replica statistics line for Table I.
func (s Spec) TableRow(g *hypergraph.Hypergraph) string {
	st := hypergraph.Summarize(g)
	return fmt.Sprintf("%-4s paper[n=%d m=%d mean=%.1f med=%d labels=%d] replica[%s]",
		s.Name, s.PaperNodes, s.PaperEdges, s.PaperMean, s.PaperMedian, s.PaperLabels, st)
}
