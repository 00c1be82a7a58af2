// Package gen provides seeded random hypergraph generators: a uniform model
// for tests, a planted-community model used to synthesize replicas of the
// paper's datasets (see internal/dataset), and sub-sampling for the
// scalability experiment (Fig. 12).
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hged/internal/hypergraph"
)

// Config drives the planted-community generator. Hyperedges are sampled
// inside communities, whose members share correlated labels, so that
// held-out hyperedges are predictable from surviving structure — the
// property the paper's effectiveness evaluation exercises.
type Config struct {
	// Nodes and Edges are the target counts (both must be > 0).
	Nodes, Edges int
	// MeanEdgeSize and MedianEdgeSize shape the hyperedge cardinality
	// distribution (log-normal, clamped to [MinEdgeSize, MaxEdgeSize]).
	MeanEdgeSize   float64
	MedianEdgeSize int
	// MinEdgeSize defaults to 2; MaxEdgeSize defaults to 4× the mean.
	MinEdgeSize, MaxEdgeSize int
	// NodeLabelCount is |l(V)|, the number of node label classes.
	NodeLabelCount int
	// EdgeLabelCount is the number of hyperedge label classes (defaults
	// to NodeLabelCount).
	EdgeLabelCount int
	// Communities is the number of planted communities (default
	// max(2, Nodes/12)).
	Communities int
	// NoiseProb is the probability that a hyperedge member is drawn
	// outside the hyperedge's community, and that a node's label deviates
	// from its community's label (default 0.05).
	NoiseProb float64
	// Seed makes generation deterministic (0 means 1).
	Seed int64
}

func (c Config) normalize() (Config, error) {
	if c.Nodes <= 0 || c.Edges < 0 {
		return c, fmt.Errorf("gen: need Nodes > 0 and Edges ≥ 0, got %d, %d", c.Nodes, c.Edges)
	}
	if c.MeanEdgeSize == 0 {
		c.MeanEdgeSize = 3
	}
	if c.MedianEdgeSize == 0 {
		c.MedianEdgeSize = int(math.Max(2, math.Round(c.MeanEdgeSize*0.8)))
	}
	if c.MeanEdgeSize < 1 || c.MedianEdgeSize < 1 {
		return c, fmt.Errorf("gen: edge sizes must be ≥ 1")
	}
	if c.MinEdgeSize == 0 {
		c.MinEdgeSize = 2
	}
	if c.MaxEdgeSize == 0 {
		c.MaxEdgeSize = int(4 * c.MeanEdgeSize)
		if c.MaxEdgeSize < c.MinEdgeSize {
			c.MaxEdgeSize = c.MinEdgeSize
		}
	}
	if c.MaxEdgeSize > c.Nodes {
		c.MaxEdgeSize = c.Nodes
	}
	if c.MinEdgeSize > c.MaxEdgeSize {
		c.MinEdgeSize = c.MaxEdgeSize
	}
	if c.NodeLabelCount == 0 {
		c.NodeLabelCount = 4
	}
	if c.EdgeLabelCount == 0 {
		c.EdgeLabelCount = c.NodeLabelCount
	}
	if c.Communities == 0 {
		c.Communities = c.Nodes / 12
		if c.Communities < 2 {
			c.Communities = 2
		}
	}
	if c.Communities > c.Nodes {
		c.Communities = c.Nodes
	}
	if c.NoiseProb == 0 {
		c.NoiseProb = 0.05
	}
	if c.NoiseProb < 0 || c.NoiseProb >= 1 {
		return c, fmt.Errorf("gen: NoiseProb %v out of [0,1)", c.NoiseProb)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// Community reports, for a generated graph, which community each node was
// planted in. Returned alongside the graph by PlantedCommunities.
type Community []int

// PlantedCommunities generates a hypergraph per the Config.
func PlantedCommunities(cfg Config) (*hypergraph.Hypergraph, Community, error) {
	c, err := cfg.normalize()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))

	// Assign nodes round-robin to communities (keeps sizes balanced), then
	// labels correlated with community.
	community := make(Community, c.Nodes)
	labels := make([]hypergraph.Label, c.Nodes)
	for v := 0; v < c.Nodes; v++ {
		com := v % c.Communities
		community[v] = com
		l := hypergraph.Label(1 + com%c.NodeLabelCount)
		if rng.Float64() < c.NoiseProb {
			l = hypergraph.Label(1 + rng.Intn(c.NodeLabelCount))
		}
		labels[v] = l
	}
	g := hypergraph.NewLabeled(labels)

	// Bucket nodes per community for fast member sampling.
	members := make([][]hypergraph.NodeID, c.Communities)
	for v := 0; v < c.Nodes; v++ {
		com := community[v]
		members[com] = append(members[com], hypergraph.NodeID(v))
	}

	sizer := newSizeSampler(c.MeanEdgeSize, c.MedianEdgeSize, c.MinEdgeSize, c.MaxEdgeSize)
	for e := 0; e < c.Edges; e++ {
		com := rng.Intn(c.Communities)
		size := sizer.sample(rng)
		if size > c.Nodes {
			size = c.Nodes
		}
		picked := make(map[hypergraph.NodeID]struct{}, size)
		for len(picked) < size {
			var v hypergraph.NodeID
			if rng.Float64() < c.NoiseProb || len(members[com]) == 0 {
				v = hypergraph.NodeID(rng.Intn(c.Nodes))
			} else {
				pool := members[com]
				v = pool[rng.Intn(len(pool))]
			}
			picked[v] = struct{}{}
			if len(picked) >= len(members[com])+int(float64(c.Nodes)*c.NoiseProb)+1 {
				break // community smaller than requested size
			}
		}
		nodes := make([]hypergraph.NodeID, 0, len(picked))
		for v := range picked {
			nodes = append(nodes, v)
		}
		el := hypergraph.Label(100 + com%c.EdgeLabelCount)
		if rng.Float64() < c.NoiseProb {
			el = hypergraph.Label(100 + rng.Intn(c.EdgeLabelCount))
		}
		g.AddEdge(el, nodes...)
	}
	return g, community, nil
}

// sizeSampler draws hyperedge cardinalities from a log-normal distribution
// parameterized to hit a target mean and median: median m gives μ = ln m,
// and mean/median = exp(σ²/2) gives σ. When mean ≤ median the distribution
// degenerates to the median.
type sizeSampler struct {
	mu, sigma float64
	min, max  int
}

func newSizeSampler(mean float64, median, min, max int) *sizeSampler {
	s := &sizeSampler{min: min, max: max}
	m := float64(median)
	if m < 1 {
		m = 1
	}
	s.mu = math.Log(m)
	if mean > m {
		s.sigma = math.Sqrt(2 * math.Log(mean/m))
	}
	return s
}

func (s *sizeSampler) sample(rng *rand.Rand) int {
	x := math.Exp(s.mu + s.sigma*rng.NormFloat64())
	size := int(math.Round(x))
	if size < s.min {
		size = s.min
	}
	if size > s.max {
		size = s.max
	}
	return size
}

// Uniform generates a hypergraph with n nodes, m hyperedges of sizes
// uniform in [2, maxSize], and uniform labels from the given class counts.
func Uniform(n, m, maxSize, nodeLabels, edgeLabels int, seed int64) *hypergraph.Hypergraph {
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	labels := make([]hypergraph.Label, n)
	for i := range labels {
		labels[i] = hypergraph.Label(1 + rng.Intn(maxInts(nodeLabels, 1)))
	}
	g := hypergraph.NewLabeled(labels)
	if n == 0 {
		return g
	}
	if maxSize < 2 {
		maxSize = 2
	}
	if maxSize > n {
		maxSize = n
	}
	for e := 0; e < m; e++ {
		size := 2
		if maxSize > 2 {
			size = 2 + rng.Intn(maxSize-1)
		}
		perm := rng.Perm(n)
		nodes := make([]hypergraph.NodeID, 0, size)
		for _, v := range perm[:size] {
			nodes = append(nodes, hypergraph.NodeID(v))
		}
		g.AddEdge(hypergraph.Label(100+rng.Intn(maxInts(edgeLabels, 1))), nodes...)
	}
	return g
}

// ChurnCorpus returns 256 small uniform graphs (3–5 nodes, 1–3 hyperedges
// of up to 3 members, 3 node labels, 2 edge labels), drawn from a fixed
// seed: the corpus shape of hgeddbench's corpus-churn workload, where many
// HGEDs tie. The search tests and cmd/bench both build it here.
func ChurnCorpus() []*hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(256))
	graphs := make([]*hypergraph.Hypergraph, 256)
	for i := range graphs {
		graphs[i] = Uniform(3+rng.Intn(3), 1+rng.Intn(3), 3, 3, 2, rng.Int63()+1)
	}
	return graphs
}

func maxInts(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Subsample returns the sub-hypergraph obtained by keeping a random
// nodeFrac of the nodes and, of the hyperedges whose members all survive, a
// random edgeFrac — the workload of the scalability experiment (Fig. 12).
// Fractions are clamped to [0, 1].
func Subsample(g *hypergraph.Hypergraph, nodeFrac, edgeFrac float64, seed int64) *hypergraph.Hypergraph {
	clamp := func(f float64) float64 {
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}
	nodeFrac, edgeFrac = clamp(nodeFrac), clamp(edgeFrac)
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	n := g.NumNodes()
	keepN := int(math.Round(float64(n) * nodeFrac))
	perm := rng.Perm(n)
	kept := perm[:keepN]
	sort.Ints(kept)
	remap := make(map[hypergraph.NodeID]hypergraph.NodeID, keepN)
	labels := make([]hypergraph.Label, keepN)
	for i, v := range kept {
		remap[hypergraph.NodeID(v)] = hypergraph.NodeID(i)
		labels[i] = g.NodeLabel(hypergraph.NodeID(v))
	}
	out := hypergraph.NewLabeled(labels)
	for _, e := range g.Edges() {
		if rng.Float64() >= edgeFrac {
			continue
		}
		nodes := make([]hypergraph.NodeID, 0, e.Arity())
		ok := true
		for _, v := range e.Nodes {
			nv, in := remap[v]
			if !in {
				ok = false
				break
			}
			nodes = append(nodes, nv)
		}
		if ok {
			out.AddEdge(e.Label, nodes...)
		}
	}
	return out
}
