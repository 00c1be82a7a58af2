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
// σ values are computed on demand and memoized (Section V's "on-demand
// algorithm ... substantially avoids redundant computations"). Inside G_S,
// σ(u, v) depends only on the two ego node sets NEI_{G_S}(u) and
// NEI_{G_S}(v), so context σ is keyed by that pair of sets and is shared by
// every candidate that induces the same two egos. The sets are read off the
// host's incidence lists; no candidate's G_S is ever built, and HEP-BFS
// compiles the two egos of a σ miss straight from the host's CSR into the
// solver (core.WithinInduced) without building them either. Seeds can be
// processed in parallel without changing the output.
package predict

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
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

// ParseAlgorithm maps a solver name — bfs, dfs or heu, in any case; the
// empty name is bfs — to its Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToLower(name) {
	case "", "bfs":
		return AlgBFS, nil
	case "dfs":
		return AlgDFS, nil
	case "heu":
		return AlgHEU, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want bfs, dfs or heu)", name)
}

// Within verifies HGED(g, h) ≤ tau with a's solver and reports
// res.Within(tau). HGED-BFS is core.Within, bounded at tau itself at every
// tau, 0 included; HGED-DFS and HGED-HEU run with tau as their threshold
// (opts.Threshold is ignored), which at 0 is their unbounded search. A
// plain solve, where a zero Threshold means none, passes opts.Tau().
func (a Algorithm) Within(g, h *hypergraph.Hypergraph, tau int, opts core.Options) (core.Result, bool) {
	opts.Threshold = tau
	var res core.Result
	switch a {
	case AlgDFS:
		res = core.DFS(g, h, opts)
	case AlgHEU:
		res = core.HEU(g, h, opts)
	default:
		return core.Within(g, h, tau, opts)
	}
	return res, res.Within(tau)
}

// withinInduced is Within on the sub-hypergraphs the ascending node sets x
// and y induce on host. HGED-BFS compiles both straight from host's CSR
// (core.WithinInduced); HGED-DFS and HGED-HEU solve on the built
// subgraphs.
func (a Algorithm) withinInduced(host *hypergraph.Hypergraph, x, y []hypergraph.NodeID, tau int, opts core.Options) (core.Result, bool) {
	if a == AlgBFS {
		return core.WithinInduced(host, x, y, tau, opts)
	}
	return a.Within(host.InducedSubgraph(x), host.InducedSubgraph(y), tau, opts)
}

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
	// Parallelism, when > 1, processes seeds concurrently through
	// core.ForEach on this many workers (at most one per seed).
	// Predictions are identical (the output is sorted and deduplicated);
	// only wall-clock changes. 0 and 1 mean sequential.
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
	return d, true
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
// after each processed seed with the running count; calls are serialized,
// so the count ascends strictly.
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
		defer progMu.Unlock()
		done++
		progress(done, total)
	}

	// A sequential run takes the seeds in order, so its work counters do
	// not depend on scheduling.
	results := make([][]Prediction, len(seeds))
	if _, err := core.ForEach(ctx, len(seeds), p.opts.Parallelism, func(i int) {
		results[i] = p.processSeed(seeds[i])
		report()
	}); err != nil {
		return nil, err
	}

	existing := newNodeSets(p.g.NumEdges())
	if !p.opts.IncludeExisting {
		for _, e := range p.g.Edges() {
			existing.intern(e.Nodes)
		}
	}
	seen := newNodeSets(0)
	var out []Prediction
	for _, preds := range results {
		for _, pr := range preds {
			if _, added := seen.intern(pr.Nodes); !added {
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
	var sc egoScratch
	s := p.grow(sd, &sc)
	if len(s) < p.opts.MinSize {
		return nil
	}
	p.mu.Lock()
	p.grown++
	p.mu.Unlock()
	s = p.peel(s, &sc)
	if len(s) < p.opts.MinSize || len(s) > p.opts.MaxSize {
		return nil
	}
	return []Prediction{{Nodes: s, Seed: sd.root}}
}

// grow expands the seed set by BFS up to λ hops: a neighbor w of a member v
// joins when, inside the induced sub-hypergraph on S∪{w}, w is tied to at
// least one member by a fully contained hyperedge and σ ≤ τ holds against
// every induced neighbor of w.
func (p *Predictor) grow(sd seed, sc *egoScratch) []hypergraph.NodeID {
	h := p.g.Freeze()
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
			if p.admit(h, s, w, sc) {
				inS[w] = inS[v] + 1
				s = append(s, w)
				queue = append(queue, w)
			}
		}
	}
	slices.Sort(s)
	return s
}

// egoScratch is the reusable storage of one seed's rounds, which run in
// sequence: the candidate of admit with the frontier of its members, and
// the egos of a round with the arena their sets live in. A round's ego
// sets are valid until the next round; the memo's interner keeps its own
// copies.
type egoScratch struct {
	c, aw []hypergraph.NodeID
	front frontier
	egos  []egoRef
	arena []hypergraph.NodeID
}

// admit checks the incremental Definition-4 τ condition for candidate w
// against set s: inside C = S∪{w}, w must share a hyperedge with a member,
// and σ ≤ τ must hold against each of them, in ascending order. Set s only
// grows between calls within one seed.
func (p *Predictor) admit(h *hypergraph.CSR, s []hypergraph.NodeID, w hypergraph.NodeID, sc *egoScratch) bool {
	if len(sc.front.members) != len(s) {
		sc.front.build(h, s)
	}
	// A_w is w and the members of the hyperedges tying it to S.
	ties := sc.front.ties(w)
	if len(ties) == 0 {
		return false // isolated inside the candidate: no structural tie
	}
	aw := append(sc.aw[:0], w)
	for _, t := range ties {
		aw = append(aw, h.Members(t.e)...)
	}
	slices.Sort(aw)
	aw = slices.Compact(aw)
	sc.aw = aw
	c := append(append(sc.c[:0], s...), w)
	slices.Sort(c)
	sc.c = c
	egos := p.contextEgos(sc, h, c, aw)
	wi, _ := slices.BinarySearch(aw, w)
	for i := range egos {
		if i == wi {
			continue
		}
		if _, ok := p.cache.contextDistance(egos[wi], egos[i], p.opts.Tau); !ok {
			return false
		}
	}
	return true
}

// frontier indexes, for a member set S, the host hyperedges with exactly
// one member outside S by that member. For a node w outside S these are
// the hyperedges inside S∪{w} that hold w and a member, so
// NEI_{G_{S∪{w}}}(w) is w with their members. Most neighbors w have none,
// and are rejected without a walk of their incidence lists.
type frontier struct {
	members []hypergraph.NodeID // S, ascending
	edges   []outEdge           // ascending
}

// outEdge is a hyperedge e with the one member out outside S.
type outEdge struct {
	out hypergraph.NodeID
	e   hypergraph.EdgeID
}

// build indexes the frontier of s off h, reusing f's storage.
func (f *frontier) build(h *hypergraph.CSR, s []hypergraph.NodeID) {
	f.members = append(f.members[:0], s...)
	slices.Sort(f.members)
	in := f.members
	f.edges = f.edges[:0]
	for _, v := range in {
		for _, e := range h.IncidentEdges(v) {
			members := h.Members(e)
			if len(members) > len(in)+1 {
				continue // more than one member outside S
			}
			if out, ok := soleOutsider(members, in); ok {
				f.edges = append(f.edges, outEdge{out: out, e: e})
			}
		}
	}
	// A hyperedge is met once per member it has in S.
	slices.SortFunc(f.edges, func(a, b outEdge) int {
		if a.out != b.out {
			return cmp.Compare(a.out, b.out)
		}
		return cmp.Compare(a.e, b.e)
	})
	f.edges = slices.Compact(f.edges)
}

// ties returns the frontier hyperedges whose member outside S is w.
func (f *frontier) ties(w hypergraph.NodeID) []outEdge {
	i, _ := slices.BinarySearchFunc(f.edges, w, func(t outEdge, w hypergraph.NodeID) int { return cmp.Compare(t.out, w) })
	j := i
	for j < len(f.edges) && f.edges[j].out == w {
		j++
	}
	return f.edges[i:j]
}

// soleOutsider returns the one member of the ascending members outside the
// ascending set in, if there is exactly one.
func soleOutsider(members, in []hypergraph.NodeID) (hypergraph.NodeID, bool) {
	var out hypergraph.NodeID
	outside, i := 0, 0
	for _, u := range members {
		for i < len(in) && in[i] < u {
			i++
		}
		if i < len(in) && in[i] == u {
			continue
		}
		if outside++; outside > 1 {
			return 0, false
		}
		out = u
	}
	return out, outside == 1
}

// egoSetStack is the candidate size up to which egoSet keeps its scratch
// on the stack; HEP's candidates hold at most MaxSize+1 members (9 by
// default).
const egoSetStack = 16

// egoSet appends to dst A_x = NEI_{G_C}(x) for a member x of the sorted
// candidate c, read off the host's frozen CSR h: x plus the members of x's
// host hyperedges that lie wholly inside c, ascending.
// h's sub-hypergraph induced on A_x is InducedSubgraph(c).Ego(x) with the
// same node order, edge order, labels and OrigIDs, because both keep
// exactly the host hyperedges inside A_x.
//
// A hyperedge inside c that holds x adds members only if it holds another
// member y, and then it is on y's incidence list too. So egoSet walks
// whichever side is shorter: x's own list, or the other members' lists.
func egoSet(dst []hypergraph.NodeID, h *hypergraph.CSR, c []hypergraph.NodeID, x hypergraph.NodeID) []hypergraph.NodeID {
	others := 0
	for _, y := range c {
		if y != x {
			others += h.Degree(y)
		}
	}
	return egoSetVia(dst, h, c, x, others < h.Degree(x))
}

// egoSetVia is egoSet walking x's incidence list, or with viaOthers the
// other members' lists; both give the same set.
func egoSetVia(dst []hypergraph.NodeID, h *hypergraph.CSR, c []hypergraph.NodeID, x hypergraph.NodeID, viaOthers bool) []hypergraph.NodeID {
	var inBuf [egoSetStack]bool
	var posBuf [egoSetStack]int
	in, pos := inBuf[:], posBuf[:0]
	if len(c) > egoSetStack {
		in, pos = make([]bool, len(c)), make([]int, 0, len(c))
	}
	in = in[:len(c)]
	xi, _ := slices.BinarySearch(c, x)
	in[xi] = true
	// mark flags the members of e when e lies wholly inside c and holds x.
	mark := func(e hypergraph.EdgeID) {
		members := h.Members(e)
		if len(members) > len(c) {
			return // cannot fit inside c
		}
		// Both lists ascend, so one merge walk places every member.
		pos = pos[:0]
		i, holdsX := 0, false
		for _, u := range members {
			for i < len(c) && c[i] < u {
				i++
			}
			if i == len(c) || c[i] != u {
				return // a member lies outside c
			}
			holdsX = holdsX || i == xi
			pos = append(pos, i)
		}
		if holdsX {
			for _, i := range pos {
				in[i] = true
			}
		}
	}
	if !viaOthers {
		for _, e := range h.IncidentEdges(x) {
			mark(e)
		}
	} else {
		for _, y := range c {
			if y == x {
				continue
			}
			for _, e := range h.IncidentEdges(y) {
				// Take e once, from its first member other than x.
				if m := h.Members(e); m[0] == y || m[0] == x && len(m) > 1 && m[1] == y {
					mark(e)
				}
			}
		}
	}
	for i, u := range c {
		if in[i] {
			dst = append(dst, u)
		}
	}
	return dst
}

// contextEgos returns the egos of members xs inside the sorted candidate c,
// read off h, their sets interned in one round. The egos and their sets
// live in sc until its next round.
func (p *Predictor) contextEgos(sc *egoScratch, h *hypergraph.CSR, c, xs []hypergraph.NodeID) []egoRef {
	if k := len(xs) * len(c); cap(sc.arena) < k {
		sc.arena = make([]hypergraph.NodeID, 0, k) // no set outgrows c
	}
	egos := sc.egos[:0]
	arena := sc.arena[:0]
	for _, x := range xs {
		start := len(arena)
		arena = egoSet(arena, h, c, x)
		egos = append(egos, egoRef{node: x, set: arena[start:len(arena):len(arena)]})
	}
	sc.egos = egos
	p.cache.internEgos(egos)
	return egos
}

// peel enforces Definition 4 exactly on s: while, inside G_S, some directly
// connected pair exceeds τ or any pair exceeds λ·τ, remove the node with
// the most violations. The survivor set is a verified (λ,τ)-hyperedge (or
// too small to emit). Members i and j of the ascending s are directly
// connected when s[j] lies in i's ego set.
func (p *Predictor) peel(s []hypergraph.NodeID, sc *egoScratch) []hypergraph.NodeID {
	lambdaTau := p.opts.Lambda * p.opts.Tau
	h := p.g.Freeze()
	for len(s) >= 2 {
		egos := p.contextEgos(sc, h, s, s)
		n := len(s)
		violations := make([]int, n)
		total := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				budget := lambdaTau
				if _, adj := slices.BinarySearch(egos[i].set, s[j]); adj {
					budget = p.opts.Tau
				}
				d, ok := p.cache.contextDistance(egos[i], egos[j], lambdaTau)
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

// Verify checks Definition 4 for a node set S with core.Within: every pair
// of neighbors in the induced sub-hypergraph G_S must have σ_{G_S} ≤ τ, and
// every pair of nodes σ_{G_S} ≤ λ·τ. Every Prediction emitted by Run
// satisfies Verify with the predictor's own λ and τ.
func Verify(g *hypergraph.Hypergraph, s []hypergraph.NodeID, lambda, tau int) bool {
	sub := g.InducedSubgraph(s)
	n := sub.NumNodes()
	egos := make([]*hypergraph.Hypergraph, n)
	for i := range egos {
		egos[i] = sub.Ego(hypergraph.NodeID(i))
	}
	lambdaTau := lambda * tau
	for i := 0; i < n; i++ {
		nbrs := make(map[hypergraph.NodeID]struct{})
		for _, w := range sub.Neighbors(hypergraph.NodeID(i)) {
			nbrs[w] = struct{}{}
		}
		for j := i + 1; j < n; j++ {
			budget := lambdaTau
			if _, isNbr := nbrs[hypergraph.NodeID(j)]; isNbr {
				budget = tau
			}
			if _, ok := core.Within(egos[i], egos[j], budget, core.Options{}); !ok {
				return false
			}
		}
	}
	return true
}
