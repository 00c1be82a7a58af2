package predict

import (
	"slices"
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
// work and each ego pair is searched at most a handful of times.
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
	// egos interns the context egos' sorted node sets to the set ids of
	// memo keys.
	egos     nodeSets
	computed int
	hits     int
	deduped  int
	expanded int64
}

// keyKind tells the two kinds of memo entry apart. It is as wide as the
// ids, so sigmaKey has no padding and the memo hashes it as plain memory.
type keyKind int32

const (
	// fullGraph keys full-graph σ by its node pair: a node's full ego
	// depends only on the node.
	fullGraph keyKind = iota
	// egoPair keys context σ by the interned ids of its two ego node sets
	// (see egoRef): the ego graphs, and so σ, depend only on the sets.
	egoPair
)

// sigmaKey is the memo key of one σ entry: its kind and the canonicalized
// pair, node ids for fullGraph and ego-set ids for egoPair.
type sigmaKey struct {
	kind keyKind
	a, b int32
}

func newSigmaKey(kind keyKind, a, b int32) sigmaKey {
	if a > b {
		a, b = b, a
	}
	return sigmaKey{kind: kind, a: a, b: b}
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
		egos:   newNodeSets(0),
	}
}

// egoRef is one member's ego inside a candidate context C: the member x,
// its ego node set A_x = NEI_{G_C}(x) (ascending) and the set's interned id.
type egoRef struct {
	node hypergraph.NodeID
	set  []hypergraph.NodeID
	id   int32
}

// internEgos interns the sets of one round of egos under a single lock
// acquisition and fills in their ids; new sets are copied. At
// Parallelism > 1 the ids depend on scheduling, so they only ever name memo
// entries.
func (c *pairCache) internEgos(egos []egoRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range egos {
		egos[i].id, _ = c.egos.intern(egos[i].set)
	}
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
	if u == v {
		return 0, true
	}
	if c.metric != nil {
		return c.metric(c.g, u, v, budget)
	}
	return c.distance(newSigmaKey(fullGraph, int32(u), int32(v)), budget, func(opts core.Options) (core.Result, bool, bool) {
		eu, ev := c.g.Ego(u), c.g.Ego(v)
		if c.maxEgo > 0 && (eu.NumNodes() > c.maxEgo || ev.NumNodes() > c.maxEgo) {
			return core.Result{}, false, false
		}
		res, within := c.solver.Within(eu, ev, budget, opts)
		return res, within, true
	})
}

// contextDistance returns σ inside a candidate context between the members
// of x and y: the HGED between the ego graphs their sets induce on the
// host. The set that compares smaller is the solve's source, so the
// direction never depends on the scheduling-dependent ids. Two equal sets
// are a key like any other: solved once, then answered by the memo. The
// egos are never taken from Ego, so nothing of them outlives the job in
// the host's ego cache; the solve compiles them straight from the host's
// CSR without building them at all.
func (c *pairCache) contextDistance(x, y egoRef, budget int) (int, bool) {
	if c.metric != nil {
		return c.metric(c.g, x.node, y.node, budget)
	}
	return c.distance(newSigmaKey(egoPair, x.id, y.id), budget, func(opts core.Options) (core.Result, bool, bool) {
		a, b := x.set, y.set
		if slices.Compare(a, b) > 0 {
			a, b = b, a
		}
		res, within := core.Algorithm(c.solver).WithinInduced(c.g, a, b, budget, opts)
		return res, within, true
	})
}

// distance returns the σ memoized under key, running solve on a miss: a
// verification at the budget under opts, which reports ok=false for a pair
// that must not be solved. Such a pair is answered "not within", and
// neither memoized nor counted as computed.
func (c *pairCache) distance(key sigmaKey, budget int, solve func(opts core.Options) (res core.Result, within, ok bool)) (int, bool) {
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

			res, within, ok := solve(core.Options{MaxExpansions: c.maxExp})
			c.mu.Lock()
			delete(c.wait, key)
			close(ch)
			if !ok {
				c.mu.Unlock()
				return 0, false
			}
			e := entryOf(res, within, budget)
			c.expanded += res.Expanded
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

// entryOf converts a verification at the budget (Algorithm.Within) to a
// cache entry. A result within the budget is cached as the distance; under
// an expansion cap it is an upper bound, which still certifies "within
// budget". Any other result, a capped upper bound above the budget
// included, is conservatively "not within", as the budget-capped paper
// variants behave.
func entryOf(res core.Result, within bool, budget int) cacheEntry {
	if !within {
		return cacheEntry{Bound: int32(budget)}
	}
	return cacheEntry{Dist: int32(res.Distance), Exact: true}
}
