package predict

import (
	"sync"

	"hged/internal/core"
	"hged/internal/hypergraph"
)

// PairMetric is a pluggable node-dissimilarity: it returns the integer
// distance between u and v in g and whether it is within the budget. Used
// by NewWithMetric to drive the HEP framework with non-HGED similarities
// (e.g. Jaccard). Metrics are context-independent and symmetric in u and v.
type PairMetric func(g *hypergraph.Hypergraph, u, v hypergraph.NodeID, budget int) (int, bool)

// pairCache memoizes σ computations — the on-demand algorithm of
// Section V. Entries record either an exact distance or a proven lower
// bound ("> b"), so repeated queries with different budgets reuse earlier
// work and each (context, pair) is searched at most a handful of times.
// The cache is safe for concurrent use; concurrent requests for the same
// uncached key are deduplicated (singleflight): one goroutine solves while
// the rest wait for its entry instead of running the identical search.
type pairCache struct {
	g      *hypergraph.Hypergraph
	solver Algorithm
	maxEgo int
	maxExp int64
	metric PairMetric

	mu sync.Mutex
	// memo holds full-graph σ (Problem 1) and induced-context σ alike.
	memo map[sigmaKey]cacheEntry
	// wait registers in-flight computations; waiters block on the channel
	// and then re-read the memo.
	wait map[sigmaKey]chan struct{}
	// ctxs interns the induced contexts' sorted node sets to the context
	// ids of memo keys.
	ctxs     nodeSets
	computed int
	hits     int
	deduped  int
	expanded int64
}

// fullGraph is the context id of full-graph σ; interned induced contexts
// are numbered from 0.
const fullGraph int32 = -1

// sigmaKey is the memo key of one σ entry: a context id (fullGraph or an
// interned context, see internCtx) and the canonicalized node pair, in
// original node ids.
type sigmaKey struct {
	ctx  int32
	u, v hypergraph.NodeID
}

func newSigmaKey(ctx int32, u, v hypergraph.NodeID) sigmaKey {
	if u > v {
		u, v = v, u
	}
	return sigmaKey{ctx: ctx, u: u, v: v}
}

// cacheEntry is an exact distance (Exact=true) or a proven lower bound:
// the distance is known to exceed Bound.
type cacheEntry struct {
	Dist  int32
	Bound int32
	Exact bool
}

func newPairCache(g *hypergraph.Hypergraph, o Options, metric PairMetric) *pairCache {
	return &pairCache{
		g:      g,
		solver: o.Algorithm,
		maxEgo: o.MaxEgoNodes,
		maxExp: o.MaxExpansions,
		metric: metric,
		memo:   make(map[sigmaKey]cacheEntry),
		wait:   make(map[sigmaKey]chan struct{}),
		ctxs:   newNodeSets(0),
	}
}

// internCtx returns the context id of the sorted node set, assigning a
// fresh one on first sight. The slice is retained; callers must not mutate
// it afterwards.
func (c *pairCache) internCtx(nodes []hypergraph.NodeID) int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, _ := c.ctxs.intern(nodes)
	return id
}

// answer resolves a cached entry against a budget: hit=false means the
// entry cannot answer and a (re)computation is needed.
func (e cacheEntry) answer(budget int) (d int, within, hit bool) {
	if e.Exact {
		return int(e.Dist), int(e.Dist) <= budget, true
	}
	if int(e.Bound) >= budget {
		return 0, false, true // proven > Bound ≥ budget
	}
	return 0, false, false
}

// fullDistance returns the full-graph σ(u, v) under the budget. Pairs whose
// ego networks exceed MaxEgoNodes are not solved.
func (c *pairCache) fullDistance(u, v hypergraph.NodeID, budget int) (int, bool) {
	return c.distance(newSigmaKey(fullGraph, u, v), budget, func() (eu, ev *hypergraph.Hypergraph, ok bool) {
		eu, ev = c.g.Ego(u), c.g.Ego(v)
		return eu, ev, c.maxEgo <= 0 || eu.NumNodes() <= c.maxEgo && ev.NumNodes() <= c.maxEgo
	})
}

// contextDistance returns σ inside the induced sub-hypergraph sub (whose
// interned context id is ctxID, see internCtx) between local nodes uL and
// vL, which correspond to original nodes u and v.
func (c *pairCache) contextDistance(ctxID int32, sub *hypergraph.Hypergraph, uL, vL, u, v hypergraph.NodeID, budget int) (int, bool) {
	return c.distance(newSigmaKey(ctxID, u, v), budget, func() (eu, ev *hypergraph.Hypergraph, ok bool) {
		return sub.Ego(uL), sub.Ego(vL), true
	})
}

// distance returns the σ memoized under key, solving it on a miss between
// the ego networks egos supplies. egos reports ok=false for a pair that must
// not be solved; it is answered "not within", and neither memoized nor
// counted as computed.
func (c *pairCache) distance(key sigmaKey, budget int, egos func() (eu, ev *hypergraph.Hypergraph, ok bool)) (int, bool) {
	if key.u == key.v {
		return 0, true
	}
	if c.metric != nil {
		// Metrics are neighborhood statistics over the full graph.
		return c.metric(c.g, key.u, key.v, budget)
	}
	for {
		c.mu.Lock()
		if e, ok := c.memo[key]; ok {
			if d, within, hit := e.answer(budget); hit {
				c.hits++
				c.mu.Unlock()
				return d, within
			}
		}
		wait, inflight := c.wait[key]
		if !inflight {
			ch := make(chan struct{})
			c.wait[key] = ch
			c.mu.Unlock()

			eu, ev, ok := egos()
			var e cacheEntry
			if ok {
				e = c.solve(eu, ev, budget)
			}
			c.mu.Lock()
			delete(c.wait, key)
			close(ch)
			if !ok {
				c.mu.Unlock()
				return 0, false
			}
			c.computed++
			c.memo[key] = e
			c.mu.Unlock()
			d, within, _ := e.answer(budget)
			return d, within
		}
		// Another goroutine is solving this key: wait for its entry and
		// re-read. A larger budget than the winner's may still miss, in
		// which case the loop takes over the computation.
		c.deduped++
		c.mu.Unlock()
		<-wait
	}
}

// solve runs the configured HGED solver as a verification at the budget
// (Algorithm.Within) and converts the result to a cache entry. A result
// within the budget is cached as the distance; under an expansion cap it
// is an upper bound, which still certifies "within budget". Any other
// result, a capped upper bound above the budget included, is
// conservatively "not within", as the budget-capped paper variants behave.
func (c *pairCache) solve(eu, ev *hypergraph.Hypergraph, budget int) cacheEntry {
	res, within := c.solver.Within(eu, ev, budget, core.Options{MaxExpansions: c.maxExp})
	c.mu.Lock()
	c.expanded += res.Expanded
	c.mu.Unlock()
	if !within {
		return cacheEntry{Bound: int32(budget)}
	}
	return cacheEntry{Dist: int32(res.Distance), Exact: true}
}
