package predict

import (
	"fmt"

	"hged/internal/core"
	"hged/internal/hypergraph"
)

// Explanation justifies one σ(u, v) value: the optimal hypergraph edit path
// between the two ego networks (Section IV-D), with a namer that renders
// ego-local entities in terms of the host graph.
type Explanation struct {
	U, V     hypergraph.NodeID
	Distance int
	// Exact is false when the search hit the predictor's MaxExpansions
	// first: Distance and Path are then the best incumbent found, an upper
	// bound on σ(u, v).
	Exact bool
	Path  *core.Path
	namer *core.Namer
}

// Lines renders the edit path as human-readable sentences.
func (e *Explanation) Lines() []string { return core.Explain(e.Path, e.namer) }

// String renders the numbered narrative, headed "σ(u,v) = d", or
// "σ(u,v) ≤ d (capped)" when the distance is only an upper bound.
func (e *Explanation) String() string {
	head := fmt.Sprintf("σ(%d,%d) = %d", e.U, e.V, e.Distance)
	if !e.Exact {
		head = fmt.Sprintf("σ(%d,%d) ≤ %d (capped)", e.U, e.V, e.Distance)
	}
	return head + ":\n" + core.ExplainString(e.Path, e.namer)
}

// PredictionExplanation justifies one predicted (λ,τ)-hyperedge: for every
// pair of members, the σ value inside the induced sub-hypergraph G_S and
// (for the loosest pair) the edit path that realizes it.
type PredictionExplanation struct {
	Nodes []hypergraph.NodeID
	// PairSigma maps "i,j" member-index pairs to σ_{G_S} values.
	PairSigma map[[2]int]int
	// WorstPair is the loosest pair of members and WorstPath its edit
	// path — the weakest structural link holding the prediction together.
	WorstPair [2]hypergraph.NodeID
	WorstPath *core.Path
	// WorstExact is false when the worst pair's search hit the predictor's
	// MaxExpansions: its σ and path are then an upper bound.
	WorstExact bool
}

// ExplainPrediction computes, inside the induced sub-hypergraph of the
// prediction, every pairwise σ and the edit path of the loosest pair. This
// is the Definition-4 flavored counterpart of Explain: it justifies *the
// hyperedge*, not a full-graph similarity.
func (p *Predictor) ExplainPrediction(pred Prediction) (*PredictionExplanation, error) {
	if len(pred.Nodes) < 2 {
		return nil, fmt.Errorf("predict: prediction %v too small to explain", pred.Nodes)
	}
	sub := p.g.InducedSubgraph(pred.Nodes)
	ex := &PredictionExplanation{
		Nodes:     append([]hypergraph.NodeID(nil), pred.Nodes...),
		PairSigma: make(map[[2]int]int),
	}
	worst := -1
	n := sub.NumNodes()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			res := core.BFS(sub.Ego(hypergraph.NodeID(i)), sub.Ego(hypergraph.NodeID(j)),
				core.Options{MaxExpansions: p.opts.MaxExpansions})
			ex.PairSigma[[2]int{i, j}] = res.Distance
			if res.Distance > worst {
				worst = res.Distance
				ex.WorstPair = [2]hypergraph.NodeID{sub.OrigID(hypergraph.NodeID(i)), sub.OrigID(hypergraph.NodeID(j))}
				ex.WorstPath = res.Path
				ex.WorstExact = res.Exact
			}
		}
	}
	return ex, nil
}

// Explain computes σ(u, v) together with the optimal edit path between
// EGO(u) and EGO(v), independent of any threshold. This is the "why are
// these two nodes similar" artifact the paper's title promises.
func (p *Predictor) Explain(u, v hypergraph.NodeID) (*Explanation, error) {
	eu, ev := p.g.Ego(u), p.g.Ego(v)
	if p.opts.MaxEgoNodes > 0 && (eu.NumNodes() > p.opts.MaxEgoNodes || ev.NumNodes() > p.opts.MaxEgoNodes) {
		return nil, fmt.Errorf("predict: ego networks of %d and %d exceed the size guard (%d)", u, v, p.opts.MaxEgoNodes)
	}
	res := core.BFS(eu, ev, core.Options{MaxExpansions: p.opts.MaxExpansions})
	if res.Path == nil {
		return nil, fmt.Errorf("predict: no edit path found for (%d,%d)", u, v)
	}
	return &Explanation{U: u, V: v, Distance: res.Distance, Exact: res.Exact, Path: res.Path, namer: core.EgoNamer(eu)}, nil
}
