package predict

import (
	"fmt"
	"slices"

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

// MemberPair is one pair of a prediction's members, checked by Definition
// 4 inside the induced sub-hypergraph G_S.
type MemberPair struct {
	U, V hypergraph.NodeID
	// Sigma is σ_{G_S}(U, V). Exact is false when the search hit the
	// predictor's MaxExpansions first: Sigma is then an upper bound.
	Sigma int
	Exact bool
	// Budget is τ when U and V share a hyperedge of G_S, λ·τ otherwise.
	Budget int
}

// PredictionExplanation justifies one predicted (λ,τ)-hyperedge by
// Definition 4: every pair of members within its budget inside G_S, and
// the edit path of the pair with the least slack (budget − σ), the
// weakest link holding the prediction together.
type PredictionExplanation struct {
	Nodes []hypergraph.NodeID
	// Pairs holds every pair of members, in ascending order.
	Pairs []MemberPair
	// Tightest explains the pair with the least slack, the first such
	// pair on a tie, and Budget is that pair's budget.
	Tightest *Explanation
	Budget   int
}

// String renders the tightest pair's explanation headed by its budget.
func (e *PredictionExplanation) String() string {
	return fmt.Sprintf("budget %d, %s", e.Budget, e.Tightest)
}

// ExplainPrediction checks the prediction by Definition 4 inside G_S at
// the predictor's λ, τ and MaxExpansions, and explains it by its tightest
// pair. A set that fails Definition 4 is an error naming the first pair
// not within its budget. This justifies *the hyperedge*; Explain justifies
// a full-graph similarity.
func (p *Predictor) ExplainPrediction(pred Prediction) (*PredictionExplanation, error) {
	sub, pairs, ok := checkGS(p.g, pred.Nodes, p.opts.Lambda, p.opts.Tau, core.Options{MaxExpansions: p.opts.MaxExpansions})
	host := func(i int) hypergraph.NodeID { return sub.OrigID(hypergraph.NodeID(i)) }
	switch {
	case len(pairs) == 0:
		return nil, fmt.Errorf("predict: prediction %v too small to explain", pred.Nodes)
	case !ok:
		bad := pairs[len(pairs)-1]
		sigma := fmt.Sprintf("σ ≥ %d", bad.res.Distance)
		if !bad.res.Exceeded {
			sigma = fmt.Sprintf("σ ≤ %d (capped)", bad.res.Distance)
		}
		return nil, fmt.Errorf("predict: %v is no (%d,%d)-hyperedge: pair (%d,%d) is not within its budget %d, %s",
			pred.Nodes, p.opts.Lambda, p.opts.Tau, host(bad.i), host(bad.j), bad.budget, sigma)
	}
	ex := &PredictionExplanation{Nodes: slices.Clone(pred.Nodes), Pairs: make([]MemberPair, len(pairs))}
	tight := pairs[0]
	for k, pr := range pairs {
		ex.Pairs[k] = MemberPair{U: host(pr.i), V: host(pr.j), Sigma: pr.res.Distance, Exact: pr.res.Exact, Budget: pr.budget}
		if pr.budget-pr.res.Distance < tight.budget-tight.res.Distance {
			tight = pr
		}
	}
	ex.Budget = tight.budget
	ex.Tightest = &Explanation{U: host(tight.i), V: host(tight.j), Distance: tight.res.Distance, Exact: tight.res.Exact,
		Path: tight.res.Path, namer: core.EgoNamer(sub.Ego(hypergraph.NodeID(tight.i)))}
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
