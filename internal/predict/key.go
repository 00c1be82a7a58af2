package predict

import (
	"slices"

	"hged/internal/hypergraph"
)

// hashNodeIDs hashes a sorted node set with 64-bit FNV-1a, folding in the
// length so prefixes hash differently. Callers never rely on uniqueness:
// every use verifies the actual node set on a hash match, so collisions cost
// a comparison, never a false merge.
func hashNodeIDs(nodes []hypergraph.NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range nodes {
		h ^= uint64(uint32(v))
		h *= prime64
	}
	h ^= uint64(len(nodes))
	h *= prime64
	return h
}

// nodeSets interns node sets, each sorted ascending, to dense int32 ids in
// order of first sight. Sets are hashed into collision-checked buckets, so
// distinct sets never share an id. Each added set is copied into a shared
// chunk, so callers may reuse what they pass in.
type nodeSets struct {
	buckets map[uint64][]int32
	sets    [][]hypergraph.NodeID
	chunk   []hypergraph.NodeID // free tail of the current copy chunk
}

// setChunk is the size, in node ids, of nodeSets' copy chunks.
const setChunk = 1024

func newNodeSets(sizeHint int) nodeSets {
	return nodeSets{buckets: make(map[uint64][]int32, sizeHint)}
}

func (s *nodeSets) find(nodes []hypergraph.NodeID, h uint64) (int32, bool) {
	for _, id := range s.buckets[h] {
		if slices.Equal(s.sets[id], nodes) {
			return id, true
		}
	}
	return 0, false
}

func (s *nodeSets) contains(nodes []hypergraph.NodeID) bool {
	_, ok := s.find(nodes, hashNodeIDs(nodes))
	return ok
}

// intern returns the id of the set and whether it was added now.
func (s *nodeSets) intern(nodes []hypergraph.NodeID) (int32, bool) {
	h := hashNodeIDs(nodes)
	if id, ok := s.find(nodes, h); ok {
		return id, false
	}
	k := len(nodes)
	if len(s.chunk) < k {
		s.chunk = make([]hypergraph.NodeID, max(setChunk, k))
	}
	set := s.chunk[:k:k]
	copy(set, nodes)
	s.chunk = s.chunk[k:]
	id := int32(len(s.sets))
	s.sets = append(s.sets, set)
	s.buckets[h] = append(s.buckets[h], id)
	return id, true
}

// clone returns an independent copy that assigns the same ids.
func (s *nodeSets) clone() nodeSets {
	c := newNodeSets(len(s.buckets))
	for _, set := range s.sets {
		c.intern(set)
	}
	return c
}
