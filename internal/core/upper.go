package core

import (
	"cmp"
	"math/rand"
	"slices"

	"hged/internal/hypergraph"
)

// Strategy 2 samples upperBoundSamples random mappings besides the greedy
// one, from a source seeded with upperBoundSeed.
const (
	upperBoundSamples       = 3
	upperBoundSeed    int64 = 1
)

// upperBound implements Strategy 2: it evaluates the exact edit cost of a
// small set of heuristically constructed complete mappings — one greedy
// label/degree-aligned mapping plus a few seeded random samples — and
// returns the cheapest mapping found. Every candidate is a complete valid
// mapping, so the returned cost is a sound upper bound on HGED.
//
// The sampled permutations come from the pair's sample memo (see
// samplePerms); a winning sample is copied out, so the returned mapping
// never aliases the memo.
func (p *pair) upperBound(samples int, seed int64) (int, *Mapping) {
	best := p.greedyMapping()
	bestCost := p.totalCost(best)

	perms := p.samplePerms(samples, seed)
	winner := -1
	for s := 0; s < samples; s++ {
		if c := p.totalCost(p.mapping(perms[2*s], perms[2*s+1])); c < bestCost {
			bestCost, winner = c, s
		}
	}
	if winner >= 0 {
		best = p.mapping(slices.Clone(perms[2*winner]), slices.Clone(perms[2*winner+1]))
	}
	return bestCost, best
}

// sampleKey identifies one Strategy-2 sample set: the permutations depend
// only on the seed, the sample count and the padded sizes.
type sampleKey struct {
	seed          int64
	samples, n, m int
}

// sampleMemoLimit bounds the entries of a pair's sample memo; a full memo
// is cleared before the next insertion.
const sampleMemoLimit = 64

// samplePerms returns the Strategy-2 random mappings for (samples, seed) at
// the pair's padded sizes as 2·samples permutations, node and edge maps
// alternating. They are generated exactly as a fresh
// rand.New(rand.NewSource(seed)) drawing Perm(N), Perm(M) per sample, and
// memoized on the pair: seeding a source allocates 4.9 KiB and costs more
// than a small solve. The returned slices are shared with the memo and
// must only be read.
func (p *pair) samplePerms(samples int, seed int64) [][]int {
	key := sampleKey{seed: seed, samples: samples, n: p.paddedN, m: p.paddedM}
	if perms, ok := p.sampleMemo[key]; ok {
		return perms
	}
	rng := rand.New(rand.NewSource(seed))
	perms := make([][]int, 0, 2*samples)
	for s := 0; s < samples; s++ {
		perms = append(perms, rng.Perm(key.n), rng.Perm(key.m))
	}
	if p.sampleMemo == nil {
		p.sampleMemo = make(map[sampleKey][][]int)
	} else if len(p.sampleMemo) >= sampleMemoLimit {
		clear(p.sampleMemo)
	}
	p.sampleMemo[key] = perms
	return perms
}

// greedyMapping pairs source and target nodes sorted by (label, degree) and
// hyperedges sorted by (label, cardinality), sending the overhang to null
// slots — the "simply ranked matching order" the paper observes is often
// close to optimal.
func (p *pair) greedyMapping() *Mapping {
	return p.mapping(
		alignLists(rankedSlots(p.src.nodeLabels, p.src.degrees), rankedSlots(p.tgt.nodeLabels, p.tgt.degrees), p.paddedN),
		alignLists(rankedSlots(p.src.edgeLabels, p.src.cards), rankedSlots(p.tgt.edgeLabels, p.tgt.cards), p.paddedM))
}

// rankedSlots returns the slots 0..len(labels)-1 ordered by label
// ascending, then key (degree or cardinality) descending, then slot id. The
// order is total, so any correct sort yields the same slots.
func rankedSlots(labels []hypergraph.Label, keys []int) []int {
	s := make([]int, len(labels))
	for i := range s {
		s[i] = i
	}
	slices.SortFunc(s, func(a, b int) int {
		if labels[a] != labels[b] {
			return cmp.Compare(labels[a], labels[b])
		}
		if keys[a] != keys[b] {
			return cmp.Compare(keys[b], keys[a])
		}
		return cmp.Compare(a, b)
	})
	return s
}

// alignLists pairs the i-th source slot with the i-th target slot, padding
// the shorter side with null slots (ids ≥ its real count), and returns the
// source→target permutation over 0..padded-1.
func alignLists(src, tgt []int, padded int) []int {
	perm := make([]int, padded)
	for i := range perm {
		perm[i] = -1
	}
	usedTgt := make([]bool, padded)
	k := len(src)
	if len(tgt) < k {
		k = len(tgt)
	}
	for i := 0; i < k; i++ {
		perm[src[i]] = tgt[i]
		usedTgt[tgt[i]] = true
	}
	// Remaining source slots (real overhang + nulls) take the unused target
	// slots in order.
	next := 0
	for i := 0; i < padded; i++ {
		if perm[i] != -1 {
			continue
		}
		for usedTgt[next] {
			next++
		}
		perm[i] = next
		usedTgt[next] = true
	}
	return perm
}
