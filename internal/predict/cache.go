package predict

import (
	"sync"

	"hged/internal/core"
	"hged/internal/hypergraph"
)

// PairMetric is a pluggable node-dissimilarity: it returns the integer
// distance between u and v in g and whether it is within the budget. Used
// by NewWithMetric to drive the HEP framework with non-HGED similarities
// (e.g. Jaccard). Metrics are context-independent.
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
	// full memoizes full-graph σ (Problem 1) by node pair.
	full map[uint64]cacheEntry
	// ctx memoizes induced-context σ by interned context id + node pair.
	ctx map[ctxPair]cacheEntry
	// fullWait and ctxWait register in-flight computations; waiters block
	// on the channel and then re-read the memo.
	fullWait map[uint64]chan struct{}
	ctxWait  map[ctxPair]chan struct{}
	// Context interner: canonical sorted node sets mapped to dense int32
	// ids, hashed with collision-checked buckets (see internCtx).
	ctxBuckets map[uint64][]int32
	ctxSets    [][]hypergraph.NodeID
	computed   int
	hits       int
	deduped    int
	expanded   int64
}

// ctxPair is the comparable memo key for an induced-context σ entry: an
// interned context id plus the canonicalized node pair. It replaces the
// previous string key (context bytes + packed pair), removing a string
// build per lookup.
type ctxPair struct {
	ctx  int32
	u, v hypergraph.NodeID
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
		g:          g,
		solver:     o.Algorithm,
		maxEgo:     o.MaxEgoNodes,
		maxExp:     o.MaxExpansions,
		metric:     metric,
		full:       make(map[uint64]cacheEntry),
		ctx:        make(map[ctxPair]cacheEntry),
		fullWait:   make(map[uint64]chan struct{}),
		ctxWait:    make(map[ctxPair]chan struct{}),
		ctxBuckets: make(map[uint64][]int32),
	}
}

// internCtx returns the dense id of the context identified by the sorted
// node set, assigning a fresh one on first sight. Hash collisions are
// resolved by comparing the actual sets, so distinct contexts never share an
// id. The slice is retained; callers must not mutate it afterwards.
func (c *pairCache) internCtx(nodes []hypergraph.NodeID) int32 {
	k := hashNodeIDs(nodes)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.ctxBuckets[k] {
		if nodeSetsEqual(c.ctxSets[id], nodes) {
			return id
		}
	}
	id := int32(len(c.ctxSets))
	c.ctxSets = append(c.ctxSets, nodes)
	c.ctxBuckets[k] = append(c.ctxBuckets[k], id)
	return id
}

func pairKey(u, v hypergraph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// ctxPairKey builds the comparable memo key for an induced-context σ entry,
// canonicalizing the pair order.
func ctxPairKey(ctx int32, u, v hypergraph.NodeID) ctxPair {
	if u > v {
		u, v = v, u
	}
	return ctxPair{ctx: ctx, u: u, v: v}
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

// fullDistance returns the full-graph σ(u, v) under the budget.
func (c *pairCache) fullDistance(u, v hypergraph.NodeID, budget int) (int, bool) {
	if u == v {
		return 0, true
	}
	if c.metric != nil {
		return c.metric(c.g, u, v, budget)
	}
	key := pairKey(u, v)
	for {
		c.mu.Lock()
		if e, ok := c.full[key]; ok {
			if d, within, hit := e.answer(budget); hit {
				c.hits++
				c.mu.Unlock()
				return d, within
			}
		}
		wait, inflight := c.fullWait[key]
		if !inflight {
			ch := make(chan struct{})
			c.fullWait[key] = ch
			c.mu.Unlock()

			eu, ev := c.g.Ego(u), c.g.Ego(v)
			guarded := c.maxEgo > 0 && (eu.NumNodes() > c.maxEgo || ev.NumNodes() > c.maxEgo)
			var e cacheEntry
			if !guarded {
				e = c.solve(eu, ev, budget)
			}
			c.mu.Lock()
			delete(c.fullWait, key)
			close(ch)
			if guarded {
				c.mu.Unlock()
				return 0, false
			}
			c.computed++
			c.full[key] = e
			c.mu.Unlock()
			d, within, _ := e.answer(budget)
			return d, within
		}
		// Another goroutine is solving this pair: wait for its entry and
		// re-read. A larger budget than the winner's may still miss, in
		// which case the loop takes over the computation.
		c.deduped++
		c.mu.Unlock()
		<-wait
	}
}

// contextDistance returns σ inside the induced sub-hypergraph sub (whose
// interned context id is ctxID, see internCtx) between local nodes uL and
// vL, which correspond to original nodes u and v.
func (c *pairCache) contextDistance(ctxID int32, sub *hypergraph.Hypergraph, uL, vL, u, v hypergraph.NodeID, budget int) (int, bool) {
	if u == v {
		return 0, true
	}
	if c.metric != nil {
		// Metrics are neighborhood statistics over the full graph.
		return c.metric(c.g, u, v, budget)
	}
	key := ctxPairKey(ctxID, u, v)
	for {
		c.mu.Lock()
		if e, ok := c.ctx[key]; ok {
			if d, within, hit := e.answer(budget); hit {
				c.hits++
				c.mu.Unlock()
				return d, within
			}
		}
		wait, inflight := c.ctxWait[key]
		if !inflight {
			ch := make(chan struct{})
			c.ctxWait[key] = ch
			c.mu.Unlock()

			e := c.solve(sub.Ego(uL), sub.Ego(vL), budget)
			c.mu.Lock()
			delete(c.ctxWait, key)
			close(ch)
			c.computed++
			c.ctx[key] = e
			c.mu.Unlock()
			d, within, _ := e.answer(budget)
			return d, within
		}
		c.deduped++
		c.mu.Unlock()
		<-wait
	}
}

// solve runs the configured HGED solver with the given threshold and
// converts the result to a cache entry. A result within the budget is
// cached as the distance; under an expansion cap it is an upper bound,
// which still certifies "within budget". Any other result, a capped upper
// bound above the budget included, is conservatively "not within", as the
// budget-capped paper variants behave.
func (c *pairCache) solve(eu, ev *hypergraph.Hypergraph, budget int) cacheEntry {
	opts := core.Options{Threshold: budget, MaxExpansions: c.maxExp}
	var res core.Result
	switch c.solver {
	case AlgDFS:
		res = core.DFS(eu, ev, opts)
	case AlgHEU:
		res = core.HEU(eu, ev, opts)
	default:
		sv := core.AcquireSolver()
		res, _ = sv.Within(eu, ev, budget, opts)
		core.ReleaseSolver(sv)
	}
	c.mu.Lock()
	c.expanded += res.Expanded
	c.mu.Unlock()
	if !res.Within(budget) {
		return cacheEntry{Bound: int32(budget)}
	}
	return cacheEntry{Dist: int32(res.Distance), Exact: true}
}
