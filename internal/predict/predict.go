// Package predict implements HEP (Algorithm 4 of the paper): mining
// (λ,τ)-hyperedges of a hypergraph as hyperedge predictions.
//
// A node set S is a (λ,τ)-hyperedge (Definition 4) when, *inside the
// induced sub-hypergraph G_S*, every pair of directly connected nodes has
// node-similar distance σ_{G_S} ≤ τ and every pair of nodes has
// σ_{G_S} ≤ λ·τ, where σ(u,v) is the HGED between ego networks. Computing
// σ inside G_S is what makes the paper's τ values (3–10) meaningful at any
// ambient density: a candidate hyperedge is judged by its own internal
// structure, not by the (possibly enormous) full-graph neighborhoods.
//
// HEP mirrors the paper's two phases:
//
//  1. Grow candidate sets by BFS from seeds (each node, and each training
//     hyperedge within the size bounds), admitting a neighbor w of the
//     current set S when w is structurally tied inside G_{S∪{w}} and
//     σ_{G_{S∪{w}}}(w, v) ≤ τ for every induced neighbor v (Algorithm 4,
//     lines 2–9). Growth is bounded by λ hops from the seed.
//  2. Peel each candidate until Definition 4 holds exactly: while some
//     directly connected pair exceeds τ or some pair exceeds λ·τ inside
//     G_S, remove the node with the most violations (lines 10–13). Every
//     emitted prediction is therefore a verified (λ,τ)-hyperedge.
//
// σ values are computed on demand and memoized under their context
// (Section V's "on-demand algorithm ... substantially avoids redundant
// computations"); seeds can be processed in parallel without changing the
// output.
package predict

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"hged/internal/core"
	"hged/internal/hypergraph"
)

// Algorithm selects the HGED solver driving σ computations.
type Algorithm int

const (
	// AlgBFS uses HGED-BFS with all pruning strategies (HEP-BFS).
	AlgBFS Algorithm = iota
	// AlgDFS uses HGED-DFS (HEP-DFS): exact but without re-ranking, upper
	// bounds, or lower bounds.
	AlgDFS
	// AlgHEU uses HGED-HEU: a heuristic upper-bound instance.
	AlgHEU
)

func (a Algorithm) String() string {
	switch a {
	case AlgBFS:
		return "HEP-BFS"
	case AlgDFS:
		return "HEP-DFS"
	case AlgHEU:
		return "HEP-HEU"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures HEP. The zero value is completed by Normalize: λ=3,
// τ=5 (the paper's defaults), HGED-BFS, hyperedge sizes 2..8.
type Options struct {
	// Lambda is λ ≥ 1: candidate sets extend at most λ hops from their
	// seed, and pairs inside a candidate must satisfy σ ≤ λ·τ.
	Lambda int
	// Tau is τ > 0: the node-similar distance budget for directly
	// connected pairs.
	Tau int
	// Algorithm is the HGED solver to use.
	Algorithm Algorithm
	// MinSize and MaxSize bound emitted hyperedge cardinalities. Zero
	// values default to 2 and 8.
	MinSize, MaxSize int
	// IncludeExisting keeps predictions whose node set already appears as
	// a hyperedge of the input graph. Off by default: HEP predicts
	// *missing* hyperedges.
	IncludeExisting bool
	// MaxEgoNodes guards the full-graph σ computations behind Sigma and
	// Explain against hub nodes (0 defaults to 64). Candidate growth uses
	// induced-context egos, which are bounded by MaxSize anyway.
	MaxEgoNodes int
	// MaxExpansions bounds each individual HGED search (0 = solver
	// default).
	MaxExpansions int64
	// Parallelism, when > 1, processes seeds concurrently with this many
	// workers. Predictions are identical (the output is sorted and
	// deduplicated); only wall-clock changes. 0 and 1 mean sequential.
	Parallelism int
}

// Normalize fills defaults and validates; it returns an error for
// out-of-range parameters.
func (o Options) Normalize() (Options, error) {
	if o.Lambda == 0 {
		o.Lambda = 3
	}
	if o.Tau == 0 {
		o.Tau = 5
	}
	if o.Lambda < 1 {
		return o, fmt.Errorf("predict: λ = %d, must be ≥ 1", o.Lambda)
	}
	if o.Tau < 0 {
		return o, fmt.Errorf("predict: τ = %d, must be > 0", o.Tau)
	}
	if o.MinSize == 0 {
		o.MinSize = 2
	}
	if o.MaxSize == 0 {
		o.MaxSize = 8
	}
	if o.MinSize < 2 || o.MaxSize < o.MinSize {
		return o, fmt.Errorf("predict: invalid size bounds [%d,%d]", o.MinSize, o.MaxSize)
	}
	if o.MaxEgoNodes == 0 {
		o.MaxEgoNodes = 64
	}
	return o, nil
}

// Prediction is one predicted hyperedge: a verified (λ,τ)-hyperedge that is
// not (unless IncludeExisting) already a hyperedge of the input graph.
type Prediction struct {
	// Nodes is the predicted node set, ascending.
	Nodes []hypergraph.NodeID
	// Seed is the node whose growth produced the candidate.
	Seed hypergraph.NodeID
}

// Stats reports the work a Run performed.
type Stats struct {
	Seeds         int   // growth seeds processed
	Components    int   // candidate sets that survived growth (≥ MinSize)
	PairsComputed int   // distinct σ computations performed
	PairsCached   int   // σ lookups answered by the memo
	PairsDeduped  int   // σ requests that waited for an identical in-flight computation
	Expanded      int64 // total HGED search states expanded
}

// Predictor runs HEP over one hypergraph with an on-demand σ cache shared
// across all phases. Create with New. Run may be called repeatedly; the
// cache persists across calls.
type Predictor struct {
	g     *hypergraph.Hypergraph
	opts  Options
	cache *pairCache

	mu    sync.Mutex
	seeds int
	grown int
}

// New builds a Predictor for g. Options are normalized; invalid parameters
// return an error.
func New(g *hypergraph.Hypergraph, opts Options) (*Predictor, error) {
	return NewWithMetric(g, opts, nil)
}

// NewWithMetric builds a Predictor whose σ is computed by metric instead of
// HGED; the HEP search framework (seeded growth, λ-hop bound, Definition-4
// peeling, on-demand memoization) is unchanged. This is how the paper's JS
// baseline "uses the HEP framework to predict hyperedges". A nil metric
// selects HGED. Metrics are evaluated on the full graph (they are
// neighborhood statistics, not structural edits), so their values are
// context-independent.
func NewWithMetric(g *hypergraph.Hypergraph, opts Options, metric PairMetric) (*Predictor, error) {
	o, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	return &Predictor{g: g, opts: o, cache: newPairCache(g, o, metric)}, nil
}

// Stats returns work counters accumulated so far.
func (p *Predictor) Stats() Stats {
	p.mu.Lock()
	s := Stats{Seeds: p.seeds, Components: p.grown}
	p.mu.Unlock()
	p.cache.mu.Lock()
	s.PairsComputed = p.cache.computed
	s.PairsCached = p.cache.hits
	s.PairsDeduped = p.cache.deduped
	s.Expanded = p.cache.expanded
	p.cache.mu.Unlock()
	return s
}

// Sigma returns the full-graph node-similar distance σ(u, v) (Problem 1)
// and whether it is within the given budget. Unlike the growth phase's
// context-local σ, this is the HGED between the nodes' full ego networks.
func (p *Predictor) Sigma(u, v hypergraph.NodeID, budget int) (int, bool) {
	d, ok := p.cache.fullDistance(u, v, budget)
	if !ok {
		return 0, false
	}
	return d, d <= budget
}

// Run executes HEP and returns all predicted (λ,τ)-hyperedges, sorted by
// their node sets.
func (p *Predictor) Run() []Prediction {
	out, _ := p.RunContext(context.Background(), nil)
	return out
}

// RunContext executes HEP like Run, additionally honoring a context and
// reporting progress. The context is checked between seeds: once it is
// cancelled the run stops promptly (individual σ searches still finish)
// and ctx.Err() is returned with a nil prediction set. progress, when
// non-nil, is called once with (0, total) before the first seed and then
// after each processed seed with the running count; calls are serialized.
func (p *Predictor) RunContext(ctx context.Context, progress func(done, total int)) ([]Prediction, error) {
	seeds := p.collectSeeds()
	p.mu.Lock()
	p.seeds += len(seeds)
	p.mu.Unlock()

	total := len(seeds)
	var progMu sync.Mutex
	done := 0
	if progress != nil {
		progress(0, total)
	}
	report := func() {
		if progress == nil {
			return
		}
		progMu.Lock()
		done++
		d := done
		progMu.Unlock()
		progress(d, total)
	}

	workers := p.opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	results := make([][]Prediction, len(seeds))
	if workers == 1 {
		for i, s := range seeds {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			results[i] = p.processSeed(s)
			report()
		}
	} else {
		var wg sync.WaitGroup
		ch := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ch {
					if ctx.Err() != nil {
						continue // drain the channel without working
					}
					results[i] = p.processSeed(seeds[i])
					report()
				}
			}()
		}
	feed:
		for i := range seeds {
			select {
			case ch <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(ch)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	existing := newNodeSetSet(p.g.NumEdges())
	if !p.opts.IncludeExisting {
		for _, e := range p.g.Edges() {
			existing.insert(e.Nodes)
		}
	}
	seen := newNodeSetSet(0)
	var out []Prediction
	for _, preds := range results {
		for _, pr := range preds {
			if !seen.insert(pr.Nodes) {
				continue
			}
			if existing.contains(pr.Nodes) {
				continue
			}
			out = append(out, pr)
		}
	}
	slices.SortFunc(out, func(a, b Prediction) int { return slices.Compare(a.Nodes, b.Nodes) })
	return out, nil
}

// seed is one growth starting point.
type seed struct {
	root  hypergraph.NodeID
	nodes []hypergraph.NodeID
}

// collectSeeds returns the growth seeds: every node, plus every training
// hyperedge whose cardinality fits the size bounds (predicting completions
// and extensions of known interactions).
func (p *Predictor) collectSeeds() []seed {
	var seeds []seed
	for v := 0; v < p.g.NumNodes(); v++ {
		seeds = append(seeds, seed{root: hypergraph.NodeID(v), nodes: []hypergraph.NodeID{hypergraph.NodeID(v)}})
	}
	for _, e := range p.g.Edges() {
		if e.Arity() >= 2 && e.Arity() <= p.opts.MaxSize {
			nodes := append([]hypergraph.NodeID(nil), e.Nodes...)
			seeds = append(seeds, seed{root: e.Nodes[0], nodes: nodes})
		}
	}
	return seeds
}

// processSeed grows one seed and peels it to a verified (λ,τ)-hyperedge.
func (p *Predictor) processSeed(sd seed) []Prediction {
	s := p.grow(sd)
	if len(s) < p.opts.MinSize {
		return nil
	}
	p.mu.Lock()
	p.grown++
	p.mu.Unlock()
	s = p.peel(s)
	if len(s) < p.opts.MinSize || len(s) > p.opts.MaxSize {
		return nil
	}
	return []Prediction{{Nodes: s, Seed: sd.root}}
}

// grow expands the seed set by BFS up to λ hops: a neighbor w of a member v
// joins when, inside the induced sub-hypergraph on S∪{w}, w is tied to at
// least one member by a fully contained hyperedge and σ ≤ τ holds against
// every induced neighbor of w.
func (p *Predictor) grow(sd seed) []hypergraph.NodeID {
	inS := make(map[hypergraph.NodeID]int, p.opts.MaxSize) // node → hop
	var s []hypergraph.NodeID
	for _, v := range sd.nodes {
		inS[v] = 0
		s = append(s, v)
	}
	queue := append([]hypergraph.NodeID(nil), sd.nodes...)
	for len(queue) > 0 && len(s) < p.opts.MaxSize {
		v := queue[0]
		queue = queue[1:]
		if inS[v] >= p.opts.Lambda {
			continue
		}
		for _, w := range p.g.Neighbors(v) {
			if len(s) >= p.opts.MaxSize {
				break
			}
			if _, in := inS[w]; in {
				continue
			}
			if p.admit(s, w) {
				inS[w] = inS[v] + 1
				s = append(s, w)
				queue = append(queue, w)
			}
		}
	}
	slices.Sort(s)
	return s
}

// admit checks the incremental Definition-4 τ condition for candidate w
// against set s.
func (p *Predictor) admit(s []hypergraph.NodeID, w hypergraph.NodeID) bool {
	c := append(append(make([]hypergraph.NodeID, 0, len(s)+1), s...), w)
	slices.Sort(c)
	// G_C numbers its nodes in ascending order of c, so local id i is c[i].
	sub := p.g.InducedSubgraph(c)
	wi, _ := slices.BinarySearch(c, w)
	wLocal := hypergraph.NodeID(wi)
	nbrs := sub.Neighbors(wLocal)
	if len(nbrs) <= 1 {
		return false // isolated inside the candidate: no structural tie
	}
	ctx := p.cache.internCtx(c)
	for _, vLocal := range nbrs {
		if vLocal == wLocal {
			continue
		}
		if d, ok := p.cache.contextDistance(ctx, sub, wLocal, vLocal, w, c[vLocal], p.opts.Tau); !ok || d > p.opts.Tau {
			return false
		}
	}
	return true
}

// peel enforces Definition 4 exactly on s: while, inside G_S, some directly
// connected pair exceeds τ or any pair exceeds λ·τ, remove the node with
// the most violations. The survivor set is a verified (λ,τ)-hyperedge (or
// too small to emit). s is ascending, so local node i of G_S is s[i].
func (p *Predictor) peel(s []hypergraph.NodeID) []hypergraph.NodeID {
	lambdaTau := p.opts.Lambda * p.opts.Tau
	for len(s) >= 2 {
		sub := p.g.InducedSubgraph(s)
		ctx := p.cache.internCtx(s)
		n := sub.NumNodes()
		// adj marks directly connected pairs: bit i·n+j for i, j sharing
		// a hyperedge of G_S.
		adj := hypergraph.NewBitset(n * n)
		for e := 0; e < sub.NumEdges(); e++ {
			members := sub.Edge(hypergraph.EdgeID(e)).Nodes
			for _, a := range members {
				for _, b := range members {
					adj.Add(int(a)*n + int(b))
				}
			}
		}
		violations := make([]int, n)
		total := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				budget := lambdaTau
				if adj.Has(i*n + j) {
					budget = p.opts.Tau
				}
				d, ok := p.cache.contextDistance(ctx, sub, hypergraph.NodeID(i), hypergraph.NodeID(j), s[i], s[j], lambdaTau)
				if !ok || d > budget {
					violations[i]++
					violations[j]++
					total++
				}
			}
		}
		if total == 0 {
			return s
		}
		// Most violations; ties go to the largest node, the last in s.
		worst := 0
		for i, c := range violations {
			if c >= violations[worst] {
				worst = i
			}
		}
		s = slices.Delete(slices.Clone(s), worst, worst+1)
	}
	return s
}

// Verify checks Definition 4 exactly for a node set S: every pair of
// neighbors in the induced sub-hypergraph G_S must have σ_{G_S} ≤ τ, and
// every pair of nodes σ_{G_S} ≤ λ·τ. Every Prediction emitted by Run
// satisfies Verify with the predictor's own λ and τ.
func Verify(g *hypergraph.Hypergraph, s []hypergraph.NodeID, lambda, tau int) bool {
	sub := g.InducedSubgraph(s)
	n := sub.NumNodes()
	lambdaTau := lambda * tau
	for i := 0; i < n; i++ {
		nbrs := make(map[hypergraph.NodeID]struct{})
		for _, w := range sub.Neighbors(hypergraph.NodeID(i)) {
			nbrs[w] = struct{}{}
		}
		for j := i + 1; j < n; j++ {
			u, v := hypergraph.NodeID(i), hypergraph.NodeID(j)
			budget := lambdaTau
			if _, isNbr := nbrs[v]; isNbr {
				budget = tau
			}
			if _, ok := core.DistanceWithin(sub.Ego(u), sub.Ego(v), budget); !ok {
				return false
			}
		}
	}
	return true
}
