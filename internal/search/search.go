// Package search implements hypergraph similarity search: given a corpus of
// hypergraphs and a query, find all corpus members within HGED ≤ τ (range
// search) or the k nearest (kNN). It follows the filtering-and-verification
// paradigm of the GED similarity-search literature the paper builds on
// (Sanfeliu & Fu; Zhao et al.; Chang et al. — refs [25], [27]–[30]):
// cheap per-graph signatures prune candidates with admissible lower bounds,
// and only survivors pay for an exact HGED-BFS verification.
//
// Verification is embarrassingly parallel, so an Index fans it out through
// core.ForEach over Index.Parallelism workers, each verification a
// core.Within on a pooled solver (core owns the pool). The engine is
// deterministic by construction: the candidate set and every verification
// threshold are fixed before workers start, workers write results into
// per-candidate slots, and the merge walks those slots in candidate order —
// so matches and FilterStats are byte-identical to the sequential scan. A
// cancelled context aborts the scan between (and, via core.Options.Context,
// inside) verifications with an error wrapping ctx.Err().
package search

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"hged/internal/core"
	"hged/internal/hypergraph"
	"hged/internal/multiset"
)

// signature is the per-graph filter summary: entity counts, dense label
// multisets, and the ascending hyperedge-cardinality list. Corpus
// signatures are views into the index's struct-of-arrays table (sigTable,
// returned by at); the query's is a standalone record from signatureOf.
type signature struct {
	n, m       int32
	incid      int32 // Σ|E|
	nodeLabels multiset.Sorted
	edgeLabels multiset.Sorted
	cards      []int32 // ascending
}

func signatureOf(g *hypergraph.Hypergraph) signature {
	c := g.Freeze()
	s := signature{
		n:          int32(c.NumNodes()),
		m:          int32(c.NumEdges()),
		incid:      int32(c.Incidences()),
		nodeLabels: multiset.SortedFromInterned(c.NodeLabelIDs(), c.Labels()),
		edgeLabels: multiset.SortedFromInterned(c.EdgeLabelIDs(), c.Labels()),
		cards:      make([]int32, c.NumEdges()),
	}
	for e := range s.cards {
		s.cards[e] = int32(c.Arity(hypergraph.EdgeID(e)))
	}
	slices.Sort(s.cards)
	return s
}

// sigTable stores the corpus signatures in struct-of-arrays layout: the
// stride-1 count columns drive the batched count filter as one tight loop,
// and the variable-width parts — cardinality lists and label-multiset
// (label, multiplicity) pairs — live in shared arenas addressed by
// per-graph offset ranges. The filter pass therefore walks contiguous
// memory in corpus order instead of chasing a pointer-laden record per
// candidate, and a graph's signature view costs no allocation (at).
type sigTable struct {
	n, m, incid []int32 // stride-1 columns, one entry per corpus graph

	cardOff []int32 // len size+1; graph i's cards at cards[cardOff[i]:cardOff[i+1]]
	cards   []int32 // ascending within each graph's range

	nodeOff    []int32 // len size+1; ranges over the node-label pair arena
	nodeLabels []hypergraph.Label
	nodeCounts []int32

	edgeOff    []int32 // len size+1; ranges over the edge-label pair arena
	edgeLabels []hypergraph.Label
	edgeCounts []int32
}

func (t *sigTable) size() int { return len(t.n) }

func (t *sigTable) init(size int) {
	t.n = make([]int32, 0, size)
	t.m = make([]int32, 0, size)
	t.incid = make([]int32, 0, size)
	t.cardOff = append(make([]int32, 0, size+1), 0)
	t.nodeOff = append(make([]int32, 0, size+1), 0)
	t.edgeOff = append(make([]int32, 0, size+1), 0)
}

// push appends s as the next corpus row, copying its variable-width parts
// into the arenas.
func (t *sigTable) push(s signature) {
	t.n = append(t.n, s.n)
	t.m = append(t.m, s.m)
	t.incid = append(t.incid, s.incid)
	t.cards = append(t.cards, s.cards...)
	t.cardOff = append(t.cardOff, int32(len(t.cards)))
	t.nodeLabels = append(t.nodeLabels, s.nodeLabels.Labels...)
	t.nodeCounts = append(t.nodeCounts, s.nodeLabels.Counts...)
	t.nodeOff = append(t.nodeOff, int32(len(t.nodeCounts)))
	t.edgeLabels = append(t.edgeLabels, s.edgeLabels.Labels...)
	t.edgeCounts = append(t.edgeCounts, s.edgeLabels.Counts...)
	t.edgeOff = append(t.edgeOff, int32(len(t.edgeCounts)))
}

// at returns graph i's signature as a view aliasing the table's arenas.
func (t *sigTable) at(i int) signature {
	no0, no1 := t.nodeOff[i], t.nodeOff[i+1]
	eo0, eo1 := t.edgeOff[i], t.edgeOff[i+1]
	return signature{
		n:          t.n[i],
		m:          t.m[i],
		incid:      t.incid[i],
		nodeLabels: multiset.Sorted{Labels: t.nodeLabels[no0:no1], Counts: t.nodeCounts[no0:no1]},
		edgeLabels: multiset.Sorted{Labels: t.edgeLabels[eo0:eo1], Counts: t.edgeCounts[eo0:eo1]},
		cards:      t.cards[t.cardOff[i]:t.cardOff[i+1]],
	}
}

func absDiff(a, b int32) int {
	d := int(a) - int(b)
	if d < 0 {
		return -d
	}
	return d
}

// countFilter is the coarsest bound: editing node and hyperedge counts
// costs at least their differences (each missing hyperedge additionally
// costs its cardinality, captured by the cardinality filter).
func countFilter(a, b signature) int {
	return absDiff(a.n, b.n) + absDiff(a.m, b.m)
}

// labelFilter is the Ψ bound of Definition 5 over both label multisets.
// The multiset sizes are the entity counts already in the signature, so
// only the intersection merge walks memory.
func labelFilter(a, b signature) int {
	return multiset.PsiSortedSized(a.nodeLabels, b.nodeLabels, int(a.n), int(b.n)) +
		multiset.PsiSortedSized(a.edgeLabels, b.edgeLabels, int(a.m), int(b.m))
}

// cardFilter is the Definition-6 cardinality bound plus the node-count
// difference (disjoint cost families).
func cardFilter(a, b signature) int {
	return absDiff(a.n, b.n) + multiset.CardinalityBoundSorted(a.cards, b.cards)
}

// combinedFilter is the full Strategy-3 bound: label Ψ plus cardinality
// bound (they charge disjoint operation families).
func combinedFilter(a, b signature) int {
	return labelFilter(a, b) + multiset.CardinalityBoundSorted(a.cards, b.cards)
}

// Index is a similarity-search index over a corpus of hypergraphs. Build
// once with Build; Search and Nearest may be called repeatedly, each a
// linear filter-and-verify scan.
type Index struct {
	graphs []*hypergraph.Hypergraph
	sigs   sigTable
	mem    spliceMem // set by Splice: the arrays graphs and sigs are windows of
	// MaxExpansions caps each verification search (0 = solver default).
	MaxExpansions int64
	// Parallelism is the number of core.ForEach verification workers,
	// clamped to the number of candidates; each verification takes a warm
	// solver from core's pool. Values ≤ 1 verify sequentially. Matches and
	// stats are identical at every setting; only wall-clock changes.
	Parallelism int
}

// Build indexes the corpus. The graphs are retained by reference (Build
// freezes each one's CSR view) and must not be mutated afterwards.
func Build(graphs []*hypergraph.Hypergraph) *Index {
	ix := &Index{graphs: graphs}
	ix.sigs.init(len(graphs))
	for _, g := range graphs {
		ix.sigs.push(signatureOf(g))
	}
	return ix
}

// BuildReusing indexes the corpus like Build, but copies the signature row
// for unchanged graphs out of a previous index instead of recomputing it:
// reuse[i] names the row of prev holding graph i's signature, or -1 to
// compute it fresh. The caller must only reuse a row that describes the
// same frozen graph. Signatures are pure functions of the graph, so the
// result is byte-identical to a full Build. To change a few rows of a
// published index in place of a rebuild, use Splice.
func BuildReusing(graphs []*hypergraph.Hypergraph, prev *Index, reuse []int) *Index {
	if prev == nil || len(reuse) != len(graphs) {
		return Build(graphs)
	}
	ix := &Index{graphs: graphs}
	ix.sigs.init(len(graphs))
	for i, g := range graphs {
		if r := reuse[i]; r >= 0 && r < prev.sigs.size() {
			ix.sigs.push(prev.sigs.at(r))
		} else {
			ix.sigs.push(signatureOf(g))
		}
	}
	return ix
}

// Splice returns a new index whose corpus is ix's with the del graphs at
// position at replaced by gs: Splice(at, 0, g) inserts, Splice(at, 1)
// deletes and Splice(at, 1, g) replaces. Only the rows of gs are computed;
// the other rows' columns and arena ranges are copied and their offsets
// shifted, so the result is byte-identical to Build over the new corpus. It
// is copy-on-write: the result shares no writable memory with ix, which
// stays valid for readers that loaded it. MaxExpansions and Parallelism
// carry over.
func (ix *Index) Splice(at, del int, gs ...*hypergraph.Hypergraph) *Index {
	return ix.SpliceInto(nil, at, del, Build(gs))
}

// SpliceInto is Splice with the inserted rows taken from rows, an index
// over the graphs to insert (Build(gs), which a caller can compute before
// taking a lock; nil inserts nothing). The result is written into the
// memory of spare — an index an earlier splice returned that nothing reads
// any more — when that memory is large enough, and into fresh memory
// otherwise. spare must not be used after the call; a nil spare, ix itself
// or an index no splice returned is ignored. A writer that publishes one
// version per write can hand each write the version the previous write
// replaced: that memory is already resident, where a fresh table costs a
// page fault per 4 KiB touched.
func (ix *Index) SpliceInto(spare *Index, at, del int, rows *Index) *Index {
	if at < 0 || del < 0 || at+del > ix.Len() {
		panic(fmt.Sprintf("search: Splice(%d, %d) out of range for %d graphs", at, del, ix.Len()))
	}
	if rows == nil {
		rows = noRows
	}
	t, mid, hi := &ix.sigs, &rows.sigs, at+del
	ng, ni := ix.Len()-del+rows.Len(), t.ints()+mid.ints()
	nlab := len(t.nodeLabels) + len(t.edgeLabels) + len(mid.nodeLabels) + len(mid.edgeLabels)
	// The graph list is a window of one array, every int32 column a window
	// of a second and both label arenas windows of a third.
	var mem spliceMem
	if spare != nil && spare != ix && spare.mem.fits(ng, ni, nlab) {
		mem = spare.mem
	} else {
		mem = spliceMem{
			graphs: make([]*hypergraph.Hypergraph, 0, ng+ng/4),
			ints:   make([]int32, 0, ni+ni/4),
			labels: make([]hypergraph.Label, 0, nlab+nlab/4),
		}
	}
	graphs, ints, labels := mem.graphs[:0], mem.ints[:0], mem.labels[:0]
	cl, ch := t.cardOff[at], t.cardOff[hi]
	nl, nh := t.nodeOff[at], t.nodeOff[hi]
	el, eh := t.edgeOff[at], t.edgeOff[hi]
	return &Index{
		graphs:        window(&graphs, ix.graphs[:at], rows.graphs, ix.graphs[hi:]),
		mem:           mem,
		MaxExpansions: ix.MaxExpansions,
		Parallelism:   ix.Parallelism,
		sigs: sigTable{
			n:          window(&ints, t.n[:at], mid.n, t.n[hi:]),
			m:          window(&ints, t.m[:at], mid.m, t.m[hi:]),
			incid:      window(&ints, t.incid[:at], mid.incid, t.incid[hi:]),
			cardOff:    spliceOffsets(&ints, t.cardOff, at, hi, mid.cardOff),
			cards:      window(&ints, t.cards[:cl], mid.cards, t.cards[ch:]),
			nodeOff:    spliceOffsets(&ints, t.nodeOff, at, hi, mid.nodeOff),
			nodeLabels: window(&labels, t.nodeLabels[:nl], mid.nodeLabels, t.nodeLabels[nh:]),
			nodeCounts: window(&ints, t.nodeCounts[:nl], mid.nodeCounts, t.nodeCounts[nh:]),
			edgeOff:    spliceOffsets(&ints, t.edgeOff, at, hi, mid.edgeOff),
			edgeLabels: window(&labels, t.edgeLabels[:el], mid.edgeLabels, t.edgeLabels[eh:]),
			edgeCounts: window(&ints, t.edgeCounts[:el], mid.edgeCounts, t.edgeCounts[eh:]),
		},
	}
}

// noRows is the empty index SpliceInto inserts when given none.
var noRows = Build(nil)

// spliceMem holds the arrays a spliced index's graph list and signature
// table are windows of.
type spliceMem struct {
	graphs []*hypergraph.Hypergraph
	ints   []int32
	labels []hypergraph.Label
}

func (m *spliceMem) fits(graphs, ints, labels int) bool {
	return cap(m.graphs) >= graphs && cap(m.ints) >= ints && cap(m.labels) >= labels
}

// ints counts the int32 entries across the table's columns.
func (t *sigTable) ints() int {
	return 3*len(t.n) + len(t.cardOff) + len(t.nodeOff) + len(t.edgeOff) +
		len(t.cards) + len(t.nodeCounts) + len(t.edgeCounts)
}

// window appends parts to *buf and returns them as one column capped at
// its length, so later appends to *buf never reach into it.
func window[T any](buf *[]T, parts ...[]T) []T {
	lo := len(*buf)
	for _, p := range parts {
		*buf = append(*buf, p...)
	}
	return (*buf)[lo:len(*buf):len(*buf)]
}

// spliceOffsets is Splice for one offset column, appended to *buf as a
// window: rows [at, hi) of off are replaced by the rows of mid (a column
// starting at 0), which are rebased onto off[at], and the rows after hi
// shift by the change in arena length.
func spliceOffsets(buf *[]int32, off []int32, at, hi int, mid []int32) []int32 {
	lo := len(*buf)
	base := off[at]
	shift := base + mid[len(mid)-1] - off[hi]
	*buf = append(*buf, off[:at+1]...)
	for _, o := range mid[1:] {
		*buf = append(*buf, base+o)
	}
	for _, o := range off[hi+1:] {
		*buf = append(*buf, o+shift)
	}
	return (*buf)[lo:len(*buf):len(*buf)]
}

// Len returns the corpus size.
func (ix *Index) Len() int { return len(ix.graphs) }

// Graph returns corpus member i.
func (ix *Index) Graph(i int) *hypergraph.Hypergraph { return ix.graphs[i] }

// Equal reports whether ix and o hold the same signature table, column by
// column (a nil and an empty column are equal). Signatures are pure
// functions of the graphs, so an index over a corpus equals Build over
// equal graphs however it was made; graph identity and the MaxExpansions
// and Parallelism settings are not compared.
func (ix *Index) Equal(o *Index) bool {
	a, b := &ix.sigs, &o.sigs
	return slices.Equal(a.n, b.n) && slices.Equal(a.m, b.m) && slices.Equal(a.incid, b.incid) &&
		slices.Equal(a.cardOff, b.cardOff) && slices.Equal(a.cards, b.cards) &&
		slices.Equal(a.nodeOff, b.nodeOff) && slices.Equal(a.nodeLabels, b.nodeLabels) &&
		slices.Equal(a.nodeCounts, b.nodeCounts) &&
		slices.Equal(a.edgeOff, b.edgeOff) && slices.Equal(a.edgeLabels, b.edgeLabels) &&
		slices.Equal(a.edgeCounts, b.edgeCounts)
}

// Match is one search result.
type Match struct {
	ID       int
	Distance int
}

// FilterStats reports how candidates were eliminated during one search.
// The fields partition the corpus: PrunedByCount + PrunedByLabel +
// PrunedByCard + PrunedByBound + Verified == Candidates.
type FilterStats struct {
	Candidates    int // corpus size
	PrunedByCount int
	PrunedByLabel int
	PrunedByCard  int
	// PrunedByBound counts kNN candidates never verified because their
	// combined lower bound could not beat the k-th best match: the bound
	// was above its distance, or equal to it with a larger ID (the
	// bound-ordered early stop). Always 0 in range search.
	PrunedByBound  int
	Verified       int // exact HGED verifications performed
	VerifiedWithin int // verifications that ended ≤ their threshold
}

// unboundedTau is the kNN threshold while fewer than k candidates are
// verified. A BFS at this threshold behaves exactly like an unbounded one
// (it matches the solver's 1<<30 "no incumbent" convention).
const unboundedTau = 1 << 30

// outcome is one verification's result slot: the distance, and whether it
// ended within the threshold.
type outcome struct {
	d      int
	within bool
}

// sortMatches orders matches ascending by distance, ties by ascending ID.
func sortMatches(ms []Match) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].Distance != ms[b].Distance {
			return ms[a].Distance < ms[b].Distance
		}
		return ms[a].ID < ms[b].ID
	})
}

// Search returns all corpus members g with HGED(q, g) ≤ tau, ascending by
// distance then id, along with the filter statistics.
func (ix *Index) Search(q *hypergraph.Hypergraph, tau int) ([]Match, FilterStats, error) {
	return ix.SearchContext(context.Background(), q, tau)
}

// SearchContext is Search with cancellation: when ctx is cancelled
// mid-scan it returns promptly with the stats gathered so far and an error
// wrapping ctx.Err().
//
// Without expansion caps the matches are exact. When MaxExpansions stops a
// verification before it proves the distance, the verification reports its
// BFS incumbent, an upper bound, and the candidate is a match only when
// that incumbent is ≤ tau. A capped verification can therefore miss a true
// match, at tau = 0 too (an isomorphic member whose BFS is capped before it
// reaches distance 0), but never reports a match above tau.
func (ix *Index) SearchContext(ctx context.Context, q *hypergraph.Hypergraph, tau int) ([]Match, FilterStats, error) {
	if tau < 0 {
		return nil, FilterStats{}, fmt.Errorf("search: negative threshold %d", tau)
	}
	qs := signatureOf(q)
	stats := FilterStats{Candidates: len(ix.graphs)}
	t := &ix.sigs
	survivors := make([]int, 0, t.size())
	for i := 0; i < t.size(); i++ {
		// Batched cheap-bound pass: the count filter reads only the
		// stride-1 columns, so most candidates die without touching the
		// arenas; survivors' label and cardinality walks then run over
		// contiguous arena ranges.
		if absDiff(qs.n, t.n[i])+absDiff(qs.m, t.m[i]) > tau {
			stats.PrunedByCount++
			continue
		}
		s := t.at(i)
		switch {
		case labelFilter(qs, s) > tau:
			stats.PrunedByLabel++
		case cardFilter(qs, s) > tau:
			stats.PrunedByCard++
		default:
			survivors = append(survivors, i)
		}
	}

	results := make([]outcome, len(survivors))
	done, err := core.ForEach(ctx, len(survivors), ix.Parallelism, func(j int) {
		results[j] = ix.verify(ctx, q, ix.graphs[survivors[j]], tau)
	})
	stats.Verified = done
	if err != nil {
		return nil, stats, fmt.Errorf("search: range scan aborted after %d/%d verifications: %w",
			done, len(survivors), err)
	}
	var out []Match
	for j, r := range results {
		if r.within {
			stats.VerifiedWithin++
			out = append(out, Match{ID: survivors[j], Distance: r.d})
		}
	}
	sortMatches(out)
	return out, stats, nil
}

// verify reports whether HGED(q, g) ≤ tau, with the distance when it is,
// through core.Within. A capped verification accepts its BFS incumbent
// only when it is ≤ tau.
func (ix *Index) verify(ctx context.Context, q, g *hypergraph.Hypergraph, tau int) outcome {
	res, ok := core.Within(q, g, tau, core.Options{MaxExpansions: ix.MaxExpansions, Context: ctx})
	return outcome{d: res.Distance, within: ok}
}

// nearestRound is the most candidates Nearest verifies in one threshold
// round. After the round that fills the top k, round r takes
// min(nearestRound, 4r) candidates — 4, 8, 12, 16, 16, … — so the
// threshold tightens early. On the churn corpus (cmd/bench
// Search/churn-knn and churn-knn-par) this verifies 13.5 candidates per
// query against 17.7 for rounds of 16, and runs faster at Parallelism 0
// and 4. The early rounds leave workers beyond 4, 8 and 12 idle, but the
// round size must not follow Parallelism: the schedule and every round's
// threshold depend
// only on the verified results of earlier rounds, so the set of
// (candidate, threshold) verifications — and therefore matches and stats,
// even when MaxExpansions caps a verification — is independent of
// Parallelism.
const nearestRound = 16

// candidate is a corpus member id with its combined signature bound.
type candidate struct{ id, bound int }

// sortCandidates orders cands by (bound, id) ascending.
func sortCandidates(cands []candidate) {
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.bound != b.bound {
			return cmp.Compare(a.bound, b.bound)
		}
		return cmp.Compare(a.id, b.id)
	})
}

// Nearest returns the k corpus members closest to q by HGED, ascending by
// distance then id (equal distances resolve to the smaller ID). It expands
// candidates in (lower bound, ID) order, the bound being the combined
// signature bound, round by round. Let (τ, wid) be the distance and ID of
// the k-th best match when a round starts: a candidate can still enter
// the top k only with a distance below τ, or equal to τ and an ID below
// wid. A round therefore takes candidates while their bound is below τ,
// or equal to τ with an ID below wid, and verifies each at threshold τ
// when its ID is below wid and at τ−1 otherwise. The first candidate that
// fails the test ends the search (every later one fails it too); the
// skipped tail is reported as PrunedByBound.
func (ix *Index) Nearest(q *hypergraph.Hypergraph, k int) ([]Match, FilterStats, error) {
	return ix.NearestContext(context.Background(), q, k)
}

// NearestContext is Nearest with cancellation: when ctx is cancelled
// mid-scan it returns promptly with the stats gathered so far and an error
// wrapping ctx.Err().
//
// Without expansion caps the matches are exact. When MaxExpansions caps a
// verification, that verification reports its BFS incumbent, an upper
// bound, which is accepted when it is within the candidate's threshold; the
// result may then differ from an uncapped search, and from searches that
// schedule thresholds differently, but it is still byte-identical, stats
// included, at every Parallelism.
func (ix *Index) NearestContext(ctx context.Context, q *hypergraph.Hypergraph, k int) ([]Match, FilterStats, error) {
	if k <= 0 {
		return nil, FilterStats{}, fmt.Errorf("search: k = %d, must be > 0", k)
	}
	qs := signatureOf(q)
	stats := FilterStats{Candidates: len(ix.graphs)}

	cands := make([]candidate, ix.sigs.size())
	for i := range cands {
		cands[i] = candidate{id: i, bound: combinedFilter(qs, ix.sigs.at(i))}
	}
	sortCandidates(cands)

	var best []Match // ascending by (distance, id), capped at k
	pos := 0
	for round := 0; pos < len(cands); {
		// Until best holds k matches every candidate may enter: the round
		// takes exactly the candidates needed to fill it, unthresholded.
		tau, wid, size := unboundedTau, len(cands), k-len(best)
		if len(best) == k {
			tau, wid = best[k-1].Distance, best[k-1].ID
			round++
			size = min(nearestRound, 4*round)
		}
		end := pos
		for end < len(cands) && end-pos < size &&
			(cands[end].bound < tau || cands[end].bound == tau && cands[end].id < wid) {
			end++
		}
		if end == pos {
			break // every later candidate sorts after (τ, wid) too
		}
		base, res := pos, make([]outcome, end-pos)
		done, err := core.ForEach(ctx, len(res), ix.Parallelism, func(j int) {
			c := cands[base+j]
			t := tau
			if c.id > wid {
				t = tau - 1 // at distance τ it would lose the tie to wid
			}
			res[j] = ix.verify(ctx, q, ix.graphs[c.id], t)
		})
		if err != nil {
			stats.Verified += done
			return nil, stats, fmt.Errorf("search: kNN scan aborted after %d/%d candidates: %w",
				base+done, len(cands), err)
		}
		stats.Verified += len(res)
		for j, r := range res {
			if r.within {
				stats.VerifiedWithin++
				best = append(best, Match{ID: cands[base+j].id, Distance: r.d})
				sortMatches(best)
				if len(best) > k {
					best = best[:k]
				}
			}
		}
		pos = end
	}
	stats.PrunedByBound += len(cands) - pos
	return best, stats, nil
}
