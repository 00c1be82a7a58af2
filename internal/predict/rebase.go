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
// endpoint is invalid, and a context entry when no member of either of its
// two ego node sets is invalid. A context ego is the sub-hypergraph the set
// induces on the host, and any edit fully inside the set marks some member
// invalid (see hypergraph.Batch). Each ego set is a subset of the context
// it was read from, so an entry survives whenever its context would.
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
	// The ego-set interner carries over wholesale (ids stay stable across
	// generations); only entries touching an invalid node are dropped.
	nc.egos = c.egos.clone()
	setValid := make([]bool, len(c.egos.sets))
	for id, set := range c.egos.sets {
		setValid[id] = !slices.ContainsFunc(set, invalid)
	}
	//hgedvet:ignore detrange filtered map-to-map copy: each key is written independently, the result is order-invariant
	for key, e := range c.memo {
		var keep bool
		if key.kind == fullGraph {
			keep = !invalid(hypergraph.NodeID(key.a)) && !invalid(hypergraph.NodeID(key.b))
		} else {
			keep = setValid[key.a] && setValid[key.b]
		}
		if keep {
			nc.memo[key] = e
		}
	}
	return nc
}
