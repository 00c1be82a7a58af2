package hged

import (
	"io"

	"hged/internal/core"
	"hged/internal/dataset"
	"hged/internal/eval"
	"hged/internal/gen"
	"hged/internal/hgio"
	"hged/internal/hypergraph"
	"hged/internal/names"
	"hged/internal/predict"
	"hged/internal/search"
	"hged/internal/viz"
)

// Hypergraph I/O (internal/hgio).

// WriteHG writes g in the .hg text format.
func WriteHG(w io.Writer, g *Hypergraph) error { return hgio.WriteText(w, g) }

// ReadHG parses the .hg text format.
func ReadHG(r io.Reader) (*Hypergraph, error) { return hgio.ReadText(r) }

// WriteJSON writes g as JSON.
func WriteJSON(w io.Writer, g *Hypergraph) error { return hgio.WriteJSON(w, g) }

// ReadJSON parses the JSON produced by WriteJSON.
func ReadJSON(r io.Reader) (*Hypergraph, error) { return hgio.ReadJSON(r) }

// ReadBenson parses the Cornell simplex dataset format (nverts, simplices,
// optional node labels).
func ReadBenson(nverts, simplices, labels io.Reader) (*Hypergraph, error) {
	return hgio.ReadBenson(nverts, simplices, labels)
}

// ReadGraphFile reads a hypergraph from a file, selecting the codec by
// extension: ".hg" text or ".json" JSON.
func ReadGraphFile(path string) (*Hypergraph, error) { return hgio.ReadFile(path) }

// Generators (internal/gen).
type (
	// GenConfig drives the planted-community hypergraph generator.
	GenConfig = gen.Config
	// Community records each generated node's planted community.
	Community = gen.Community
	// GrowthConfig drives the hyperedge-copying growth generator — the
	// streaming-update workload (Edge Correlations and Link Prediction in
	// Growing Hypergraphs).
	GrowthConfig = gen.GrowthConfig
	// GrowthStep is one operation of a growth stream.
	GrowthStep = gen.GrowthStep
)

// Growth stream operations.
const (
	GrowthAddNode    = gen.GrowthAddNode
	GrowthAddEdge    = gen.GrowthAddEdge
	GrowthRemoveEdge = gen.GrowthRemoveEdge
)

// GenerateGrowth returns a seed hypergraph and a deterministic
// hyperedge-copying growth stream to apply on top of it.
func GenerateGrowth(cfg GrowthConfig) (*Hypergraph, []GrowthStep, error) {
	return gen.Growth(cfg)
}

// ApplyGrowth replays a growth stream onto g in order.
func ApplyGrowth(g *Hypergraph, steps []GrowthStep) { gen.ApplyGrowth(g, steps) }

// GeneratePlanted synthesizes a hypergraph with planted communities.
func GeneratePlanted(cfg GenConfig) (*Hypergraph, Community, error) {
	return gen.PlantedCommunities(cfg)
}

// GenerateUniform synthesizes a uniform random hypergraph.
func GenerateUniform(n, m, maxSize, nodeLabels, edgeLabels int, seed int64) *Hypergraph {
	return gen.Uniform(n, m, maxSize, nodeLabels, edgeLabels, seed)
}

// Subsample keeps a random fraction of nodes and hyperedges (Fig. 12's
// scalability workload).
func Subsample(g *Hypergraph, nodeFrac, edgeFrac float64, seed int64) *Hypergraph {
	return gen.Subsample(g, nodeFrac, edgeFrac, seed)
}

// Datasets (internal/dataset).
type (
	// DatasetSpec describes one of the paper's evaluation datasets.
	DatasetSpec = dataset.Spec
)

// Datasets returns the registry of the paper's six datasets (Table I).
func Datasets() []DatasetSpec { return dataset.Registry }

// LookupDataset finds a dataset spec by name (PS, HS, MO, WM, TVG, AMZ).
func LookupDataset(name string) (DatasetSpec, error) { return dataset.Lookup(name) }

// SplitEdges divides a hypergraph's hyperedges into a training graph and a
// held-out validation set (the paper's 3:1 protocol uses trainFrac 0.75).
func SplitEdges(g *Hypergraph, trainFrac float64, seed int64) (*Hypergraph, []Hyperedge, error) {
	return dataset.Split(g, trainFrac, seed)
}

// Evaluation (internal/eval).
type (
	// PRF bundles Precision, Recall and F1.
	PRF = eval.PRF
	// MatchOptions controls the true-positive criterion.
	MatchOptions = eval.MatchOptions
	// MatchStats details a matching.
	MatchStats = eval.MatchStats
	// MatchMode selects overlap or containment matching.
	MatchMode = eval.MatchMode
	// ScoredPrediction is a prediction with a cohesion score.
	ScoredPrediction = predict.ScoredPrediction
)

// Match modes.
const (
	MatchOverlap     = eval.MatchOverlap
	MatchContainment = eval.MatchContainment
)

// EvaluatePredictions scores predictions against held-out hyperedges.
func EvaluatePredictions(preds [][]NodeID, held []Hyperedge, opts MatchOptions) (PRF, MatchStats) {
	return eval.Evaluate(preds, held, opts)
}

// PrecisionAtK evaluates a ranked prediction list at the given cutoffs.
func PrecisionAtK(ranked [][]NodeID, held []Hyperedge, opts MatchOptions, ks []int) []float64 {
	return eval.PrecisionAtK(ranked, held, opts, ks)
}

// Similarity search (internal/search).
type (
	// SearchIndex is a filter-and-verify HGED similarity-search index. Set
	// its Parallelism field to fan verification over a worker pool; results
	// and stats are byte-identical to the sequential scan at any setting.
	// SearchContext/NearestContext accept a context for cancellation.
	SearchIndex = search.Index
	// SearchMatch is one search result.
	SearchMatch = search.Match
	// FilterStats reports how candidates were eliminated: the prune
	// counters plus Verified always partition Candidates.
	FilterStats = search.FilterStats
)

// BuildSearchIndex indexes a corpus of hypergraphs for range and kNN search.
func BuildSearchIndex(corpus []*Hypergraph) *SearchIndex { return search.Build(corpus) }

// BuildSearchIndexReusing indexes a corpus, copying the signature row for
// every graph whose reuse entry names its row in prev (-1 recomputes).
// Results are byte-identical to BuildSearchIndex. To change a few rows of
// an index, SearchIndex.Splice is cheaper.
func BuildSearchIndexReusing(corpus []*Hypergraph, prev *SearchIndex, reuse []int) *SearchIndex {
	return search.BuildReusing(corpus, prev, reuse)
}

// WriteCorpusSnapshot serializes a whole search corpus — the names and
// the graphs as nested binary records — as one checksummed .hgx snapshot.
// names[i] labels graph i (registry names or source file paths).
func WriteCorpusSnapshot(w io.Writer, names []string, ix *SearchIndex) error {
	return hgio.WriteCorpusSnapshot(w, names, ix)
}

// ReadCorpusSnapshot restores a corpus snapshot: each graph comes back with
// the CSR view it was decoded into, and the search index is built over
// those graphs, so it always agrees with them. A load yields the whole
// corpus or an error.
func ReadCorpusSnapshot(r io.Reader) ([]string, *SearchIndex, error) {
	return hgio.ReadCorpusSnapshot(r)
}

// WriteCorpusSnapshotFile atomically writes a corpus snapshot to path.
func WriteCorpusSnapshotFile(path string, names []string, ix *SearchIndex) error {
	return hgio.WriteCorpusSnapshotFile(path, names, ix)
}

// ReadCorpusSnapshotFile reads a corpus snapshot from path with one
// contiguous read, also returning the on-disk byte count.
func ReadCorpusSnapshotFile(path string) ([]string, *SearchIndex, int64, error) {
	return hgio.ReadCorpusSnapshotFile(path)
}

// Named graphs (internal/names).
type (
	// NamedBuilder builds hypergraphs addressed by string names.
	NamedBuilder = names.Builder
)

// NewNamedBuilder returns an empty named-hypergraph builder.
func NewNamedBuilder() *NamedBuilder { return names.NewBuilder() }

// Visualization (internal/viz).
type (
	// VizOptions controls DOT rendering.
	VizOptions = viz.Options
)

// WriteDOT renders g as Graphviz DOT in the bipartite style of Fig. 1(b).
func WriteDOT(w io.Writer, g *Hypergraph, opts *VizOptions) error {
	return viz.WriteDOT(w, g, opts)
}

// WriteEditPathDOT renders g with an edit path's operations annotated.
func WriteEditPathDOT(w io.Writer, g *Hypergraph, path *Path, opts *VizOptions) error {
	return viz.WriteEditPathDOT(w, g, path, opts)
}

// WritePathJSON serializes an edit path as JSON for external tools.
func WritePathJSON(w io.Writer, p *Path) error { return core.WritePathJSON(w, p) }

// ReadPathJSON parses the JSON produced by WritePathJSON.
func ReadPathJSON(r io.Reader) (*Path, error) { return core.ReadPathJSON(r) }

// Fig1 returns the paper's running example (8 nodes, 4 hyperedges).
func Fig1() *Hypergraph { return hypergraph.Fig1() }
