package server

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"hged"
)

// GraphEntry is one named hypergraph in the registry, wrapped in an MVCC
// versioned lifecycle: readers pin immutable frozen generations while
// mutation batches publish new ones, and the entry's derived state — per
// generation stats, the lazily-built σ predictors behind the sigma endpoint
// and its row of the registry's search index — is updated incrementally on
// every commit.
type GraphEntry struct {
	Name   string
	Source string // file path, "upload", or "builtin"

	reg *Registry // publishes the entry's search-index row on every commit
	vg  *hged.VersionedGraph

	mu       sync.Mutex
	stats    hged.Stats
	statsGen int64
	// sigma holds one σ predictor per solver setting. Mutate is the only
	// publisher on vg and commits and rebases under mu, so an mu holder
	// always finds every predictor serving vg.Current().
	sigma map[string]*hged.Predictor
}

// Graph returns the current generation's immutable graph. Handlers that
// make several reads that must be mutually consistent should Pin instead.
func (e *GraphEntry) Graph() *hged.Hypergraph { return e.vg.Current().Graph() }

// Pin pins the current generation for a consistent multi-read view; the
// caller must Unpin it.
func (e *GraphEntry) Pin() *hged.GraphGeneration { return e.vg.Pin() }

// Generation returns the current generation's sequence number.
func (e *GraphEntry) Generation() int64 { return e.vg.Current().Seq() }

// Stats returns summary statistics for the current generation, memoized
// per generation.
func (e *GraphEntry) Stats() hged.Stats {
	gen := e.vg.Current()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.statsGen != gen.Seq() {
		e.stats = hged.Summarize(gen.Graph())
		e.statsGen = gen.Seq()
	}
	return e.stats
}

// Mutate runs apply inside a copy-on-write batch against the current
// generation and publishes the result. On success it rebases the entry's σ
// predictors onto the new generation (dropping only entries the delta
// invalidates), refreshes the memoized stats, replaces the entry's row of
// the registry's search index, and returns the new generation number with
// its stats and the delta — the returned stats describe exactly the
// returned generation, which a later e.Stats() call cannot guarantee under
// concurrent mutation. On error the batch is discarded and the published
// generation is unchanged.
//
// Lock order: writeMu → e.mu → r.mu. Begin waits on the MVCC writer lock
// (writeMu) and can stall behind a prior batch, so it must happen before
// e.mu is taken — holding e.mu through that wait would stall every reader
// of the entry's derived state (lockhold). Taking e.mu just before Commit
// keeps publish, rebase and the index update atomic with respect to other
// holders of e.mu, so the entry's index rows land in generation order.
// The order is cycle-free: no e.mu holder begins a batch, and no r.mu
// holder takes an entry's lock.
func (e *GraphEntry) Mutate(apply func(b *hged.GraphBatch) error) (int64, hged.Stats, hged.GraphDelta, error) {
	b := e.vg.Begin()
	if err := apply(b); err != nil {
		b.Abort()
		return 0, hged.Stats{}, hged.GraphDelta{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	gen, delta := b.Commit()
	e.stats = hged.Summarize(gen.Graph())
	e.statsGen = gen.Seq()
	//hgedvet:ignore detrange per-key in-place rebase: entries are independent, the result is order-invariant
	for key, p := range e.sigma {
		if delta.Full {
			e.sigma[key] = p.Rebase(gen.Graph(), nil)
		} else {
			e.sigma[key] = p.Rebase(gen.Graph(), delta.Invalidates)
		}
	}
	e.reg.replace(e, hged.BuildSearchIndex([]*hged.Hypergraph{gen.Graph()}))
	return gen.Seq(), e.stats, delta, nil
}

// sigmaPredictor returns the entry's memoizing σ predictor for the given
// solver and expansion cap on the current generation, creating it on first
// use, together with the graph of the generation it serves. Predictors are
// rebased across generations by Mutate, so a cached predictor always
// answers for the generation it is returned with — stale σ values cannot
// be served after a mutation.
func (e *GraphEntry) sigmaPredictor(alg hged.PredictAlgorithm, maxExp int64) (*hged.Predictor, *hged.Hypergraph, error) {
	key := fmt.Sprintf("%d|%d", alg, maxExp)
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.vg.Current().Graph()
	if p, ok := e.sigma[key]; ok {
		return p, g, nil
	}
	p, err := hged.NewPredictor(g, hged.PredictOptions{Algorithm: alg, MaxExpansions: maxExp})
	if err != nil {
		return nil, nil, err
	}
	e.sigma[key] = p
	return p, g, nil
}

// addSigmaStats adds the σ-cache counters of the entry's predictors to c.
func (e *GraphEntry) addSigmaStats(c *sigmaCounters) {
	e.mu.Lock()
	defer e.mu.Unlock()
	//hgedvet:ignore detrange commutative sum over per-predictor counters
	for _, p := range e.sigma {
		c.add(p.Stats())
	}
}

// Registry holds the server's named hypergraphs and the search index over
// them. The published corpus version is the only record of what is
// registered: readers load it without a lock, and every write — Add,
// Remove and a committed GraphEntry.Mutate — publishes a new version under
// r.mu, so a reader sees every write that returned before it. Each entry's
// graph versions independently through its MVCC wrapper.
type Registry struct {
	mu     sync.Mutex // serialises writers
	corpus atomic.Pointer[corpus]
	// spare is the version the last write replaced. The next write splices
	// into its memory unless a search still pins it: that memory is
	// resident, where a fresh table costs a page fault per 4 KiB touched,
	// which added about 10 µs to every mutation batch.
	spare *corpus
}

// corpus is one published version of the registry: the registered entries
// in ascending name order, and the search index whose row i holds the
// current generation of entries[i]. A published version is never written;
// a write publishes a spliced copy.
type corpus struct {
	entries []*GraphEntry
	ix      *hged.SearchIndex
	pins    atomic.Int64 // searches reading this version
}

// find returns the position of name in c.entries and whether it is there.
func (c *corpus) find(name string) (int, bool) {
	return slices.BinarySearchFunc(c.entries, name, func(e *GraphEntry, name string) int {
		return strings.Compare(e.Name, name)
	})
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.corpus.Store(&corpus{ix: hged.BuildSearchIndex(nil)})
	return r
}

// pin returns the published corpus version, pinned so that no write reuses
// its memory until unpin. It never waits: a version retired between the
// load and the pin is let go and the load retried.
func (r *Registry) pin() *corpus {
	for {
		c := r.corpus.Load()
		c.pins.Add(1)
		if r.corpus.Load() == c {
			return c
		}
		c.pins.Add(-1)
	}
}

func (c *corpus) unpin() { c.pins.Add(-1) }

// publish makes next the published version and keeps the version it
// replaces as the spare. r.mu must be held.
func (r *Registry) publish(next *corpus) { r.spare = r.corpus.Swap(next) }

// splice returns the published index with its del rows at position at
// replaced by the rows of ins (nil for none), written into the spare's
// memory when no search pins the spare. r.mu must be held.
func (r *Registry) splice(at, del int, ins *hged.SearchIndex) *hged.SearchIndex {
	var spare *hged.SearchIndex
	if r.spare != nil && r.spare.pins.Load() == 0 {
		spare = r.spare.ix
	}
	return r.corpus.Load().ix.SpliceInto(spare, at, del, ins)
}

// validName rejects names that would not round-trip through URL paths, and
// any whitespace or control character: names are echoed in URL paths,
// request logs and error messages, where such characters would make them
// ambiguous or let a client forge log lines.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("graph name must not be empty")
	}
	if len(name) > 128 {
		return fmt.Errorf("graph name longer than 128 bytes")
	}
	for _, r := range name {
		switch {
		case r == '/':
			return fmt.Errorf("graph name %q must not contain slashes", name)
		case r <= 0x20 || r == 0x7f || unicode.IsSpace(r) || unicode.IsControl(r):
			return fmt.Errorf("graph name %q must not contain whitespace or control characters", name)
		}
	}
	return nil
}

// newEntry wraps g as generation 1 of a versioned entry of r.
func (r *Registry) newEntry(name string, g *hged.Hypergraph, source string) *GraphEntry {
	return &GraphEntry{
		Name:     name,
		Source:   source,
		reg:      r,
		vg:       hged.NewVersionedGraph(g),
		stats:    hged.Summarize(g),
		statsGen: 1,
		sigma:    make(map[string]*hged.Predictor),
	}
}

// Add registers g under name as generation 1 of a new versioned entry and
// publishes its search-index row. The caller hands the graph over; it must
// only be mutated through the entry's Mutate batches afterwards.
func (r *Registry) Add(name string, g *hged.Hypergraph, source string) (*GraphEntry, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph %q: %w", name, err)
	}
	e := r.newEntry(name, g, source)
	row := hged.BuildSearchIndex([]*hged.Hypergraph{g}) // the signature, outside the lock
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.corpus.Load()
	at, dup := c.find(name)
	if dup {
		return nil, fmt.Errorf("graph %q already loaded", name)
	}
	r.publish(&corpus{entries: slices.Insert(slices.Clone(c.entries), at, e), ix: r.splice(at, 0, row)})
	return e, nil
}

// restore installs a whole corpus into an empty registry in one write:
// one entry per name over ix.Graph(i), with ix — already built over those
// graphs — published as the search index as it is. names must be valid,
// unique and ascending, with ix's rows in the same order.
func (r *Registry) restore(names []string, ix *hged.SearchIndex, source string) error {
	entries := make([]*GraphEntry, len(names))
	for i, name := range names {
		entries[i] = r.newEntry(name, ix.Graph(i), source)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.Len(); n != 0 {
		return fmt.Errorf("registry already holds %d graphs", n)
	}
	r.publish(&corpus{entries: entries, ix: ix})
	return nil
}

// replace publishes row, a one-graph index, as e's search-index row. It
// does nothing when e is no longer the entry registered under its name
// (removed, or replaced by a re-upload), so a late commit never lands in
// the index.
func (r *Registry) replace(e *GraphEntry, row *hged.SearchIndex) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.corpus.Load()
	at, ok := c.find(e.Name)
	if !ok || c.entries[at] != e {
		return
	}
	r.publish(&corpus{entries: c.entries, ix: r.splice(at, 1, row)})
}

// LoadFile reads a graph file (.hg or .json) and registers it under name.
func (r *Registry) LoadFile(name, path string) (*GraphEntry, error) {
	g, err := hged.ReadGraphFile(path)
	if err != nil {
		return nil, err
	}
	return r.Add(name, g, path)
}

// Get returns the entry for name.
func (r *Registry) Get(name string) (*GraphEntry, bool) {
	c := r.corpus.Load()
	if at, ok := c.find(name); ok {
		return c.entries[at], true
	}
	return nil, false
}

// Remove deletes the entry for name and its search-index row, returning
// the removed entry, or nil when there was none. Pinned readers of any of
// its generations finish undisturbed; the name is immediately free for
// re-registration.
func (r *Registry) Remove(name string) *GraphEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.corpus.Load()
	at, ok := c.find(name)
	if !ok {
		return nil
	}
	r.publish(&corpus{entries: slices.Delete(slices.Clone(c.entries), at, at+1), ix: r.splice(at, 1, nil)})
	return c.entries[at]
}

// List returns all entries sorted by name.
func (r *Registry) List() []*GraphEntry { return slices.Clone(r.corpus.Load().entries) }

// Len returns the number of loaded graphs.
func (r *Registry) Len() int { return len(r.corpus.Load().entries) }
