package hypergraph

import (
	"sync"
	"sync/atomic"
)

// Versioned wraps a hypergraph in an MVCC lifecycle: readers pin an immutable
// frozen generation in O(1) while a single writer batches mutations against a
// copy-on-write clone and publishes the next generation atomically. Old
// generations stay valid for as long as someone references them (pins are
// observability, not lifetime — the garbage collector reclaims unpinned
// history).
//
// The zero value is not usable; construct with NewVersioned.
type Versioned struct {
	writeMu   sync.Mutex // serializes Begin..Commit/Abort
	cur       atomic.Pointer[Generation]
	published atomic.Int64 // generations published, including the first
	batches   atomic.Int64 // committed mutation batches
	pinned    atomic.Int64 // currently pinned readers across all generations
}

// Generation is one immutable published version of the graph. The graph it
// exposes is frozen (CSR current) and must not be mutated by callers.
type Generation struct {
	v    *Versioned
	g    *Hypergraph
	seq  int64
	pins atomic.Int64
}

// NewVersioned publishes g as generation 1. The caller hands over ownership:
// g must not be mutated directly afterwards (use Begin/Commit batches).
func NewVersioned(g *Hypergraph) *Versioned {
	g.Freeze()
	v := &Versioned{}
	v.cur.Store(&Generation{v: v, g: g, seq: 1})
	v.published.Store(1)
	return v
}

// Current returns the latest published generation without pinning it.
func (v *Versioned) Current() *Generation { return v.cur.Load() }

// Pin returns the latest published generation and registers a reader on it.
// Pin and Unpin are O(1) — one atomic load and two counter bumps — so read
// paths can bracket every request with them.
func (v *Versioned) Pin() *Generation {
	gen := v.cur.Load()
	gen.pins.Add(1)
	v.pinned.Add(1)
	return gen
}

// PinnedReaders returns the number of currently pinned readers across all
// generations of this graph.
func (v *Versioned) PinnedReaders() int64 { return v.pinned.Load() }

// Published returns the number of generations published so far, including
// the initial one.
func (v *Versioned) Published() int64 { return v.published.Load() }

// Batches returns the number of committed mutation batches.
func (v *Versioned) Batches() int64 { return v.batches.Load() }

// Graph returns the generation's immutable graph. Callers must not mutate it.
func (gen *Generation) Graph() *Hypergraph { return gen.g }

// Seq returns the generation's sequence number (1 for the initial version).
func (gen *Generation) Seq() int64 { return gen.seq }

// Pins returns the number of readers currently pinned to this generation.
func (gen *Generation) Pins() int64 { return gen.pins.Load() }

// Unpin releases a pin taken with Versioned.Pin.
func (gen *Generation) Unpin() {
	if gen.pins.Add(-1) < 0 {
		panic("hypergraph: Generation.Unpin without matching Pin")
	}
	gen.v.pinned.Add(-1)
}

// Delta describes what a committed batch changed, for callers that maintain
// derived per-node state (σ-caches, signature rows) across generations.
type Delta struct {
	Seq          int64 // sequence number of the generation the batch produced
	NodesAdded   int
	NodesRemoved int
	EdgesAdded   int
	EdgesRemoved int
	Relabeled    int
	// Full reports that per-node invalidation was abandoned because node ids
	// were renumbered (RemoveNode): every derived per-node structure must be
	// dropped wholesale.
	Full bool
	// Invalid holds the node ids (valid in both the base and new numbering,
	// which coincide when Full is false) whose ego networks may differ
	// between the base and new generations. Nil when Full is set.
	Invalid Bitset
}

// Invalidates reports whether derived state keyed on node v must be dropped.
func (d Delta) Invalidates(v NodeID) bool {
	if d.Full {
		return true
	}
	i := int(v)
	return i >= 0 && i < len(d.Invalid)*64 && d.Invalid.Has(i)
}

// Batch is an open mutation batch against a copy-on-write clone of the base
// generation. It is single-goroutine; Begin blocks until the previous batch
// commits or aborts. Readers are never blocked: they keep pinning the base
// generation until Commit publishes the next one.
type Batch struct {
	v       *Versioned
	base    *Generation
	g       *Hypergraph
	touched Bitset // node ids whose incident structure or visible labels changed
	full    bool   // RemoveNode renumbered ids: invalidate everything
	delta   Delta
	done    bool
}

// Begin opens a mutation batch against the current generation. The working
// graph is a Clone of the base: O(|V|+|E|) header copies, with the member
// and incidence lists and the base's CSR shared until a mutation replaces
// them.
func (v *Versioned) Begin() *Batch {
	v.writeMu.Lock()
	base := v.cur.Load()
	return &Batch{
		v:       v,
		base:    base,
		g:       base.g.Clone(),
		touched: NewBitset(base.g.NumNodes()),
	}
}

func (b *Batch) mustActive() {
	if b.done {
		panic("hypergraph: use of a committed or aborted Batch")
	}
}

func (b *Batch) touch(v NodeID) {
	if int(v) >= len(b.touched)*64 {
		b.touched.Grow(int(v) + 1)
	}
	b.touched.Add(int(v))
}

// Graph exposes the batch's working graph for reads (validating ids,
// read-your-writes within the batch). Callers must not mutate it directly —
// direct mutations bypass invalidation tracking.
func (b *Batch) Graph() *Hypergraph { b.mustActive(); return b.g }

// AddNode appends a node with label l and returns its id. A fresh node has
// no incident structure, so nothing is invalidated by the add itself.
func (b *Batch) AddNode(l Label) NodeID {
	b.mustActive()
	b.delta.NodesAdded++
	return b.g.AddNode(l)
}

// AddNodes appends n unlabeled nodes and returns the first new id.
func (b *Batch) AddNodes(n int) NodeID {
	b.mustActive()
	b.delta.NodesAdded += n
	return b.g.AddNodes(n)
}

// AddEdge adds a hyperedge over nodes with label l and returns its id.
func (b *Batch) AddEdge(l Label, nodes ...NodeID) EdgeID {
	b.mustActive()
	id := b.g.AddEdge(l, nodes...)
	for _, u := range b.g.Edge(id).Nodes {
		b.touch(u)
	}
	b.delta.EdgesAdded++
	return id
}

// RemoveEdge removes hyperedge e; larger ids shift down by one.
func (b *Batch) RemoveEdge(e EdgeID) {
	b.mustActive()
	for _, u := range b.g.Edge(e).Nodes {
		b.touch(u)
	}
	b.g.RemoveEdge(e)
	b.delta.EdgesRemoved++
}

// RemoveNode removes node v; larger ids shift down by one. Renumbering
// invalidates all derived per-node state (Delta.Full).
func (b *Batch) RemoveNode(v NodeID) {
	b.mustActive()
	b.full = true
	b.g.RemoveNode(v)
	b.delta.NodesRemoved++
}

// SetNodeLabel relabels node v.
func (b *Batch) SetNodeLabel(v NodeID, l Label) {
	b.mustActive()
	b.touch(v)
	b.g.SetNodeLabel(v, l)
	b.delta.Relabeled++
}

// SetEdgeLabel relabels hyperedge e.
func (b *Batch) SetEdgeLabel(e EdgeID, l Label) {
	b.mustActive()
	for _, u := range b.g.Edge(e).Nodes {
		b.touch(u)
	}
	b.g.SetEdgeLabel(e, l)
	b.delta.Relabeled++
}

// Abort discards the batch without publishing.
func (b *Batch) Abort() {
	if b.done {
		return
	}
	b.done = true
	b.v.writeMu.Unlock()
}

// Commit freezes the working graph, publishes it as the next generation and
// returns it together with the invalidation delta. Ego networks cached on
// the base generation are carried over for every node the delta does not
// invalidate, so steady readers keep their warm caches across versions.
func (b *Batch) Commit() (*Generation, Delta) {
	b.mustActive()
	b.done = true
	b.g.Freeze()
	delta := b.delta
	delta.Full = b.full
	if !b.full {
		delta.Invalid = b.invalidNodes()
		b.carryEgoCache(delta.Invalid)
	}
	gen := &Generation{v: b.v, g: b.g, seq: b.base.seq + 1}
	delta.Seq = gen.seq
	b.v.cur.Store(gen)
	b.v.published.Add(1)
	b.v.batches.Add(1)
	b.v.writeMu.Unlock()
	return gen, delta
}

// invalidNodes computes the set of nodes whose ego networks may differ
// between the base and new generations: the union of NEI(u) over every
// touched node u, taken in both graphs. The containment argument: a cached
// ego(w) can only change if an edge fully inside NEI(w) changed, a label
// inside NEI(w) changed, or NEI(w) itself changed — each implies some
// touched u has w ∈ NEI(u), which this union covers.
func (b *Batch) invalidNodes() Bitset {
	nBase, nNew := b.base.g.NumNodes(), b.g.NumNodes()
	n := max(nBase, nNew)
	invalid := NewBitset(n)
	b.touched.ForEach(func(u int) {
		if u < nBase {
			b.base.g.neighborScan(NodeID(u), invalid)
		}
		if u < nNew {
			b.g.neighborScan(NodeID(u), invalid)
		}
	})
	return invalid
}

// carryEgoCache copies the base generation's memoized ego networks for every
// still-valid node into the new generation. Ego graphs are immutable, so
// sharing instances across generations is safe.
func (b *Batch) carryEgoCache(invalid Bitset) {
	src, dst := b.base.g, b.g
	n := dst.NumNodes()
	src.egoMu.RLock()
	var carried map[NodeID]*Hypergraph
	for w, ego := range src.egoCache {
		if int(w) < n && !invalid.Has(int(w)) {
			if carried == nil {
				carried = make(map[NodeID]*Hypergraph, len(src.egoCache))
			}
			carried[w] = ego
		}
	}
	src.egoMu.RUnlock()
	if carried == nil {
		return
	}
	dst.egoMu.Lock()
	if dst.egoCache == nil {
		dst.egoCache = carried
	} else {
		for k, e := range carried {
			dst.egoCache[k] = e
		}
	}
	dst.egoMu.Unlock()
}
