// Package hged is an explainable hyperlink-prediction library for
// hypergraphs, implementing Qin, Li, Yuan, Wang and Dai, "Explainable
// Hyperlink Prediction: A Hypergraph Edit Distance-Based Approach"
// (ICDE 2023).
//
// The library models labeled simple undirected hypergraphs, computes the
// Hypergraph Edit Distance (HGED) between two hypergraphs — along with a
// hypergraph edit path that explains the distance — and predicts missing
// hyperedges as (λ,τ)-hyperedges via the HEP framework. Classic similarity
// indices and the paper's JS and LGR baselines are included, together with
// dataset replicas and an experiment harness reproducing the paper's tables
// and figures.
//
// # Quick start
//
//	g := hged.NewHypergraph(0)
//	a := g.AddNode(1)            // labeled nodes
//	b := g.AddNode(1)
//	c := g.AddNode(2)
//	g.AddEdge(10, a, b, c)       // labeled hyperedge {a,b,c}
//
//	d := hged.Distance(g1, g2)               // exact HGED
//	d, path := hged.DistanceWithPath(g1, g2) // ... with an edit path
//	fmt.Println(hged.ExplainString(path, nil))
//
//	p, _ := hged.NewPredictor(g, hged.PredictOptions{Lambda: 3, Tau: 5})
//	for _, pred := range p.Run() { fmt.Println(pred.Nodes) }
//
// The facade re-exports the library's internal packages; see the type and
// function aliases below for the full surface.
package hged

import (
	"hged/internal/baseline"
	"hged/internal/core"
	"hged/internal/hypergraph"
	"hged/internal/predict"
)

// Hypergraph model (internal/hypergraph).
type (
	// Hypergraph is a labeled simple undirected hypergraph.
	Hypergraph = hypergraph.Hypergraph
	// Hyperedge is an unordered labeled set of nodes.
	Hyperedge = hypergraph.Hyperedge
	// NodeID identifies a node (dense, 0-based).
	NodeID = hypergraph.NodeID
	// EdgeID identifies a hyperedge (dense, 0-based).
	EdgeID = hypergraph.EdgeID
	// Label is a node or hyperedge label.
	Label = hypergraph.Label
	// Stats summarizes a hypergraph (Table-I shape).
	Stats = hypergraph.Stats
	// Bipartite is the bipartite incidence view of a hypergraph.
	Bipartite = hypergraph.Bipartite
	// VersionedGraph is an MVCC wrapper: readers pin immutable frozen
	// generations in O(1) while a writer batches mutations and publishes
	// the next.
	VersionedGraph = hypergraph.Versioned
	// GraphGeneration is one immutable published version of a graph.
	GraphGeneration = hypergraph.Generation
	// GraphBatch is an open copy-on-write mutation batch.
	GraphBatch = hypergraph.Batch
	// GraphDelta reports what a committed batch invalidates.
	GraphDelta = hypergraph.Delta
)

// NewVersionedGraph publishes g as generation 1 of a versioned graph. The
// caller hands over ownership: mutate only through Begin/Commit batches.
func NewVersionedGraph(g *Hypergraph) *VersionedGraph { return hypergraph.NewVersioned(g) }

// NewHypergraph returns an empty hypergraph with n unlabeled nodes.
func NewHypergraph(n int) *Hypergraph { return hypergraph.New(n) }

// NewLabeledHypergraph returns a hypergraph whose node i has labels[i].
func NewLabeledHypergraph(labels []Label) *Hypergraph { return hypergraph.NewLabeled(labels) }

// Isomorphic reports whether two hypergraphs are isomorphic (Definition 2).
func Isomorphic(g, h *Hypergraph) bool { return hypergraph.Isomorphic(g, h) }

// Summarize computes summary statistics for a hypergraph.
func Summarize(g *Hypergraph) Stats { return hypergraph.Summarize(g) }

// ToBipartite builds the bipartite incidence view of a hypergraph.
func ToBipartite(g *Hypergraph) *Bipartite { return hypergraph.ToBipartite(g) }

// HGED computation (internal/core).
type (
	// Options configures the HGED solvers (threshold τ, expansion budget,
	// strategy ablations).
	Options = core.Options
	// Result reports an HGED computation.
	Result = core.Result
	// Path is a hypergraph edit path explaining a distance.
	Path = core.Path
	// Op is one atomic edit operation (Definition 3).
	Op = core.Op
	// OpKind enumerates the atomic operations.
	OpKind = core.OpKind
	// Mapping is a complete node+hyperedge correspondence.
	Mapping = core.Mapping
	// Namer renders entities in explanations.
	Namer = core.Namer
	// CostModel weights the atomic edit operations (unit costs by
	// default).
	CostModel = core.CostModel
)

// UnitCosts returns the paper's unit-cost model.
func UnitCosts() CostModel { return core.UnitCosts() }

// Edit operation kinds (Definition 3).
const (
	OpNodeDelete  = core.OpNodeDelete
	OpNodeInsert  = core.OpNodeInsert
	OpEdgeDelete  = core.OpEdgeDelete
	OpEdgeInsert  = core.OpEdgeInsert
	OpEdgeReduce  = core.OpEdgeReduce
	OpEdgeExtend  = core.OpEdgeExtend
	OpNodeRelabel = core.OpNodeRelabel
	OpEdgeRelabel = core.OpEdgeRelabel
)

// Distance computes the exact hypergraph edit distance HGED(g, h).
func Distance(g, h *Hypergraph) int { return core.Distance(g, h) }

// DistanceWithin verifies HGED(g, h) ≤ tau, returning the distance (an upper
// bound when the default expansion cap cuts the search short) and true when
// within.
func DistanceWithin(g, h *Hypergraph, tau int) (int, bool) { return core.DistanceWithin(g, h, tau) }

// DistanceWithPath computes HGED(g, h) and an optimal edit path.
func DistanceWithPath(g, h *Hypergraph) (int, *Path) { return core.DistanceWithPath(g, h) }

// NodeDistance computes the node-similar distance σ(u, v) (Problem 1): the
// HGED between the ego networks of u and v in g.
func NodeDistance(g *Hypergraph, u, v NodeID, opts Options) Result {
	return core.NodeDistance(g, u, v, opts)
}

// BFS runs HGED-BFS (Algorithm 3), the recommended exact solver.
func BFS(g, h *Hypergraph, opts Options) Result { return core.BFS(g, h, opts) }

// DFS runs HGED-DFS (Algorithms 1+2), the exact enumeration baseline.
func DFS(g, h *Hypergraph, opts Options) Result { return core.DFS(g, h, opts) }

// HEU runs HGED-HEU (Algorithm 1), the heuristic upper-bound baseline.
func HEU(g, h *Hypergraph, opts Options) Result { return core.HEU(g, h, opts) }

// LowerBound returns the Strategy-3 admissible lower bound on HGED(g, h).
func LowerBound(g, h *Hypergraph) int { return core.LowerBound(g, h) }

// NotWithin marks DistanceMatrix entries beyond the threshold.
const NotWithin = core.NotWithin

// DistanceMatrix computes all pairwise HGED values, optionally in parallel.
func DistanceMatrix(graphs []*Hypergraph, opts Options, workers int) [][]int {
	return core.Matrix(graphs, opts, workers)
}

// NodeDistanceMatrix computes pairwise node-similar distances σ(u, v) for
// the given nodes of one host graph.
func NodeDistanceMatrix(g *Hypergraph, nodes []NodeID, opts Options, workers int) [][]int {
	return core.NodeMatrix(g, nodes, opts, workers)
}

// Explain renders an edit path as human-readable sentences.
func Explain(p *Path, namer *Namer) []string { return core.Explain(p, namer) }

// ExplainString renders an edit path as a numbered narrative.
func ExplainString(p *Path, namer *Namer) string { return core.ExplainString(p, namer) }

// EgoNamer names the slots of an edit path from the ego network eu in terms
// of its host graph: "node 12" for a host node, "new node #5" and
// "hyperedge #2" by slot otherwise.
func EgoNamer(eu *Hypergraph) *Namer { return core.EgoNamer(eu) }

// Hyperedge prediction (internal/predict).
type (
	// PredictOptions configures HEP (λ, τ, solver, size bounds).
	PredictOptions = predict.Options
	// Predictor runs HEP over one hypergraph.
	Predictor = predict.Predictor
	// Prediction is one predicted hyperedge.
	Prediction = predict.Prediction
	// Explanation is a σ(u,v) justification via an edit path.
	Explanation = predict.Explanation
	// PredictAlgorithm selects the HGED solver inside HEP.
	PredictAlgorithm = predict.Algorithm
	// PredictStats reports the work a HEP run performed, including the σ
	// cache counters (computed / hits / in-flight dedups / expansions).
	PredictStats = predict.Stats
)

// HEP solver choices.
const (
	AlgBFS = predict.AlgBFS
	AlgDFS = predict.AlgDFS
	AlgHEU = predict.AlgHEU
)

// ParseAlgorithm maps a solver name (bfs, dfs or heu, in any case; "" is
// bfs) to its PredictAlgorithm, whose Within method runs that solver.
func ParseAlgorithm(name string) (PredictAlgorithm, error) { return predict.ParseAlgorithm(name) }

// NewPredictor builds a HEP predictor for g.
func NewPredictor(g *Hypergraph, opts PredictOptions) (*Predictor, error) {
	return predict.New(g, opts)
}

// VerifyHyperedge checks Definition 4: whether s is a (λ,τ)-hyperedge of
// g. A pair whose search the default expansion cap cuts short is within
// only if its upper bound is.
func VerifyHyperedge(g *Hypergraph, s []NodeID, lambda, tau int) bool {
	return predict.Verify(g, s, lambda, tau)
}

// Baselines (internal/baseline).
type (
	// JSOptions configures the Jaccard-similarity baseline.
	JSOptions = baseline.JSOptions
	// LGROptions configures the logistic-regression baseline.
	LGROptions = baseline.LGROptions
	// LGR is the trained logistic-regression hyperedge classifier.
	LGR = baseline.LGR
)

// NewJS builds the paper's JS baseline: the HEP framework driven by Jaccard
// similarity.
func NewJS(g *Hypergraph, opts JSOptions) (*Predictor, error) { return baseline.NewJS(g, opts) }

// NewLGR trains the paper's LGR baseline on g's hyperedges.
func NewLGR(g *Hypergraph, opts LGROptions) (*LGR, error) { return baseline.NewLGR(g, opts) }

// Jaccard returns the Jaccard similarity of two nodes' neighborhoods.
func Jaccard(g *Hypergraph, u, v NodeID) float64 { return baseline.Jaccard(g, u, v) }

// AdamicAdar returns the Adamic/Adar index of two nodes.
func AdamicAdar(g *Hypergraph, u, v NodeID) float64 { return baseline.AdamicAdar(g, u, v) }

// CommonNeighbors returns the common-neighbour count of two nodes.
func CommonNeighbors(g *Hypergraph, u, v NodeID) float64 { return baseline.CommonNeighbors(g, u, v) }
