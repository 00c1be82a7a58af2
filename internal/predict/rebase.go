package predict

import (
	"slices"

	"hged/internal/hypergraph"
)

// Rebase returns a new Predictor serving graph g — the next published
// generation of the graph this predictor was built on — carrying over every
// σ-cache entry the mutation delta does not invalidate. invalid reports
// whether a node's ego network may have changed between the generations; a
// nil invalid means node ids were renumbered and the whole cache is dropped
// (only the work counters survive, so /metrics stays monotonic).
//
// The receiver is left untouched and keeps answering queries against its own
// generation — in-flight requests finish with a consistent view while new
// requests use the rebased predictor. Entry carry-over is sound because σ is
// a function of ego networks only: a full entry (u,v) is reused when neither
// endpoint is invalid, and a context entry when no member of its interned
// context set is invalid (any edit fully inside the context marks some
// member invalid — see hypergraph.Batch).
func (p *Predictor) Rebase(g *hypergraph.Hypergraph, invalid func(hypergraph.NodeID) bool) *Predictor {
	np := &Predictor{g: g, opts: p.opts, cache: p.cache.rebase(g, p.opts, invalid)}
	p.mu.Lock()
	np.seeds, np.grown = p.seeds, p.grown
	p.mu.Unlock()
	return np
}

func (c *pairCache) rebase(g *hypergraph.Hypergraph, o Options, invalid func(hypergraph.NodeID) bool) *pairCache {
	nc := newPairCache(g, o, c.metric)
	c.mu.Lock()
	defer c.mu.Unlock()
	nc.computed, nc.hits, nc.deduped, nc.expanded = c.computed, c.hits, c.deduped, c.expanded
	if invalid == nil {
		return nc // renumbered: nothing keyed by node id survives
	}
	// The context interner carries over wholesale (ids stay stable across
	// generations); only entries touching an invalid node are dropped.
	nc.ctxs = c.ctxs.clone()
	ctxValid := make([]bool, len(c.ctxs.sets))
	for id, set := range c.ctxs.sets {
		ctxValid[id] = !slices.ContainsFunc(set, invalid)
	}
	//hgedvet:ignore detrange filtered map-to-map copy: each key is written independently, the result is order-invariant
	for key, e := range c.memo {
		var keep bool
		if key.ctx == fullGraph {
			keep = !invalid(key.u) && !invalid(key.v)
		} else {
			keep = ctxValid[key.ctx]
		}
		if keep {
			nc.memo[key] = e
		}
	}
	return nc
}
