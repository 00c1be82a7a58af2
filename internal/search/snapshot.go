package search

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"hged/internal/hypergraph"
	"hged/internal/multiset"
)

// Snapshot is the persistable state of an Index minus the graphs
// themselves: the signature table's stride-1 columns and arenas exactly as
// they sit in memory, and the per-graph signature digests. hgio serializes
// it into the combined corpus snapshot (.hgx); FromSnapshot restores an
// Index from it without recomputing a single signature.
//
// All slices alias the index that produced them — treat a Snapshot as
// read-only.
type Snapshot struct {
	// Stride-1 per-graph columns (len = corpus size).
	N, M, Incid []int32
	// Cardinality arena: graph i's ascending hyperedge cardinalities are
	// Cards[CardOff[i]:CardOff[i+1]] (CardOff has corpus size + 1 entries).
	CardOff, Cards []int32
	// Node-label multiset arena: ascending (label, multiplicity) pairs per
	// graph, addressed like Cards.
	NodeOff    []int32
	NodeLabels []hypergraph.Label
	NodeCounts []int32
	// Hyperedge-label multiset arena, same shape.
	EdgeOff    []int32
	EdgeLabels []hypergraph.Label
	EdgeCounts []int32
	// Digests fingerprints each graph's signature (see SignatureDigests).
	Digests []uint64
}

// Snapshot dumps the index's signature table and digests as views into the
// live index (no copies — the caller must not mutate them).
func (ix *Index) Snapshot() *Snapshot {
	t := &ix.sigs
	return &Snapshot{
		N: t.n, M: t.m, Incid: t.incid,
		CardOff: t.cardOff, Cards: t.cards,
		NodeOff: t.nodeOff, NodeLabels: t.nodeLabels, NodeCounts: t.nodeCounts,
		EdgeOff: t.edgeOff, EdgeLabels: t.edgeLabels, EdgeCounts: t.edgeCounts,
		Digests: ix.SignatureDigests(),
	}
}

// FromSnapshot restores an Index over graphs from a snapshot, skipping the
// signature computation Build would perform. The restored table is
// validated structurally (offset shapes, ascending label multisets), its
// stride-1 columns are cross-checked against each graph's actual entity
// counts, and the recomputed digests must equal s.Digests — so a snapshot
// restored against the wrong corpus, or an internally inconsistent one, is
// rejected rather than silently mis-pruning.
//
// The snapshot's slices are retained by the returned index; neither may be
// mutated afterwards. Graphs loaded frozen-first (hgio.ReadBinary) keep
// their zero-rebuild property: no call here freezes or thaws anything that
// was not already frozen.
func FromSnapshot(graphs []*hypergraph.Hypergraph, s *Snapshot) (*Index, error) {
	size := len(graphs)
	if len(s.N) != size || len(s.M) != size || len(s.Incid) != size || len(s.Digests) != size {
		return nil, fmt.Errorf("search: snapshot covers %d/%d/%d graphs (%d digests), corpus has %d",
			len(s.N), len(s.M), len(s.Incid), len(s.Digests), size)
	}
	checkOffsets := func(name string, off []int32, arena int) error {
		if len(off) != size+1 {
			return fmt.Errorf("search: snapshot %s offsets have %d entries, want %d", name, len(off), size+1)
		}
		if off[0] != 0 || int(off[size]) != arena {
			return fmt.Errorf("search: snapshot %s offsets span [%d,%d], want [0,%d]", name, off[0], off[size], arena)
		}
		for i := 0; i < size; i++ {
			if off[i+1] < off[i] {
				return fmt.Errorf("search: snapshot %s offsets decrease at %d", name, i)
			}
		}
		return nil
	}
	if err := checkOffsets("cardinality", s.CardOff, len(s.Cards)); err != nil {
		return nil, err
	}
	if err := checkOffsets("node-label", s.NodeOff, len(s.NodeLabels)); err != nil {
		return nil, err
	}
	if err := checkOffsets("edge-label", s.EdgeOff, len(s.EdgeLabels)); err != nil {
		return nil, err
	}
	if len(s.NodeCounts) != len(s.NodeLabels) || len(s.EdgeCounts) != len(s.EdgeLabels) {
		return nil, fmt.Errorf("search: snapshot label/count arena lengths disagree (%d/%d node, %d/%d edge)",
			len(s.NodeLabels), len(s.NodeCounts), len(s.EdgeLabels), len(s.EdgeCounts))
	}
	checkMultisets := func(name string, off []int32, labels []hypergraph.Label, counts []int32) error {
		for i := 0; i < size; i++ {
			for j := off[i]; j < off[i+1]; j++ {
				if counts[j] <= 0 {
					return fmt.Errorf("search: snapshot graph %d %s multiset has multiplicity %d", i, name, counts[j])
				}
				if j > off[i] && labels[j] <= labels[j-1] {
					return fmt.Errorf("search: snapshot graph %d %s multiset labels not strictly ascending", i, name)
				}
			}
		}
		return nil
	}
	if err := checkMultisets("node-label", s.NodeOff, s.NodeLabels, s.NodeCounts); err != nil {
		return nil, err
	}
	if err := checkMultisets("edge-label", s.EdgeOff, s.EdgeLabels, s.EdgeCounts); err != nil {
		return nil, err
	}
	for i := 0; i < size; i++ {
		for j := s.CardOff[i]; j < s.CardOff[i+1]; j++ {
			if s.Cards[j] < 0 || (j > s.CardOff[i] && s.Cards[j] < s.Cards[j-1]) {
				return nil, fmt.Errorf("search: snapshot graph %d cardinalities not ascending/non-negative", i)
			}
		}
	}
	for i, g := range graphs {
		if int(s.N[i]) != g.NumNodes() || int(s.M[i]) != g.NumEdges() {
			return nil, fmt.Errorf("search: snapshot graph %d records n=%d m=%d, graph has n=%d m=%d",
				i, s.N[i], s.M[i], g.NumNodes(), g.NumEdges())
		}
		if int(s.CardOff[i+1]-s.CardOff[i]) != g.NumEdges() {
			return nil, fmt.Errorf("search: snapshot graph %d has %d cardinalities for %d hyperedges",
				i, s.CardOff[i+1]-s.CardOff[i], g.NumEdges())
		}
		sum := int32(0)
		for j := s.CardOff[i]; j < s.CardOff[i+1]; j++ {
			sum += s.Cards[j]
		}
		if sum != s.Incid[i] {
			return nil, fmt.Errorf("search: snapshot graph %d cardinalities sum to %d, incid column says %d", i, sum, s.Incid[i])
		}
	}
	ix := &Index{graphs: graphs, sigs: sigTable{
		n: s.N, m: s.M, incid: s.Incid,
		cardOff: s.CardOff, cards: s.Cards,
		nodeOff: s.NodeOff, nodeLabels: s.NodeLabels, nodeCounts: s.NodeCounts,
		edgeOff: s.EdgeOff, edgeLabels: s.EdgeLabels, edgeCounts: s.EdgeCounts,
	}}
	for i, want := range s.Digests {
		if got := ix.sigs.at(i).digest(); got != want {
			return nil, fmt.Errorf("search: snapshot graph %d signature digest mismatch (stored %016x, recomputed %016x)", i, want, got)
		}
	}
	return ix, nil
}

// SignatureDigests fingerprints every corpus graph's filter signature
// (FNV-1a over a canonical encoding of counts, cardinalities and label
// multisets). Corpus snapshots persist these so a restored signature table
// can be checked against the graphs it is restored over.
func (ix *Index) SignatureDigests() []uint64 {
	out := make([]uint64, ix.sigs.size())
	for i := range out {
		out[i] = ix.sigs.at(i).digest()
	}
	return out
}

// digest canonically encodes the signature into an FNV-1a fingerprint.
func (s signature) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(s.n))
	put(int64(s.m))
	put(int64(s.incid))
	put(int64(len(s.cards)))
	for _, c := range s.cards {
		put(int64(c))
	}
	putCounts(put, s.nodeLabels)
	putCounts(put, s.edgeLabels)
	return h.Sum64()
}

// putCounts feeds a label multiset into the digest: the number of distinct
// labels, then the (label, multiplicity) pairs in ascending label order —
// which Sorted maintains by construction, so the bytes are identical to
// the historical map-and-sort encoding and old snapshots keep loading.
func putCounts(put func(int64), s multiset.Sorted) {
	put(int64(len(s.Labels)))
	for i, l := range s.Labels {
		put(int64(l))
		put(int64(s.Counts[i]))
	}
}
