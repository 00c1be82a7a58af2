package predict

import (
	"slices"
	"sort"

	"hged/internal/hypergraph"
)

// ScoredPrediction is a prediction with a cohesion score: the maximum
// pairwise σ inside the induced sub-hypergraph (smaller is tighter). A
// score of 0 means all members' induced ego networks are isomorphic.
type ScoredPrediction struct {
	Prediction
	// Score is max_{u,v∈S} σ_{G_S}(u, v).
	Score int
	// MeanScore is the average pairwise σ_{G_S}, a tie-breaker.
	MeanScore float64
}

// RunRanked executes HEP and returns the predictions ordered from tightest
// to loosest cohesion (ties broken by mean pairwise σ, then node sets).
// Useful for precision@k evaluation and for surfacing the most credible
// predictions first.
func (p *Predictor) RunRanked() []ScoredPrediction {
	preds := p.Run()
	out := make([]ScoredPrediction, 0, len(preds))
	for _, pr := range preds {
		score, mean := p.cohesion(pr.Nodes)
		out = append(out, ScoredPrediction{Prediction: pr, Score: score, MeanScore: mean})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		if out[i].MeanScore != out[j].MeanScore {
			return out[i].MeanScore < out[j].MeanScore
		}
		return slices.Compare(out[i].Nodes, out[j].Nodes) < 0
	})
	return out
}

// cohesion computes the maximum and mean pairwise σ inside G_S. Values are
// bounded by λ·τ for emitted predictions (they satisfy Definition 4).
func (p *Predictor) cohesion(s []hypergraph.NodeID) (int, float64) {
	if len(s) < 2 {
		return 0, 0
	}
	sub := p.g.InducedSubgraph(s)
	ctx := p.cache.internCtx(s)
	lambdaTau := p.opts.Lambda * p.opts.Tau
	maxScore, total, pairs := 0, 0, 0
	n := sub.NumNodes()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, ok := p.cache.contextDistance(ctx, sub, hypergraph.NodeID(i), hypergraph.NodeID(j), s[i], s[j], lambdaTau)
			if !ok {
				d = lambdaTau + 1 // should not happen for emitted sets
			}
			if d > maxScore {
				maxScore = d
			}
			total += d
			pairs++
		}
	}
	return maxScore, float64(total) / float64(pairs)
}
