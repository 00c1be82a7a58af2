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

// strategy2 implements Strategy 2: it evaluates the exact edit cost of a
// small set of heuristically constructed complete mappings — one greedy
// label/degree-aligned mapping plus a few seeded random samples — and
// returns the cheapest cost with the sample that reached it first, or
// greedyWinner. Every candidate is a complete valid mapping, so the cost is
// a sound upper bound on HGED. It allocates nothing once the pair is warm;
// strategy2Mapping builds the winner's Mapping when a result needs it.
func (p *pair) strategy2(samples int, seed int64) (cost, winner int) {
	cost, winner = p.totalCost(p.greedyPerms()), greedyWinner
	perms := p.samplePerms(samples, seed)
	for s := 0; s < samples; s++ {
		if c := p.totalCost(perms[2*s], perms[2*s+1]); c < cost {
			cost, winner = c, s
		}
	}
	return cost, winner
}

// greedyWinner is strategy2's winner when no sample beats the greedy
// mapping.
const greedyWinner = -1

// strategy2Mapping returns the Mapping of strategy2(samples, seed)'s
// winner. It copies the maps out, so the Mapping aliases neither the
// sample memo nor the greedy scratch.
func (p *pair) strategy2Mapping(samples int, seed int64, winner int) *Mapping {
	if winner == greedyWinner {
		nodeMap, edgeMap := p.greedyPerms()
		return p.mapping(slices.Clone(nodeMap), slices.Clone(edgeMap))
	}
	perms := p.samplePerms(samples, seed)
	return p.mapping(slices.Clone(perms[2*winner]), slices.Clone(perms[2*winner+1]))
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

// greedyPerms pairs source and target nodes sorted by (label, degree) and
// hyperedges sorted by (label, cardinality), sending the overhang to null
// slots — the "simply ranked matching order" the paper observes is often
// close to optimal. The node and hyperedge maps it returns live in the
// pair's scratch until the next call.
func (p *pair) greedyPerms() (nodeMap, edgeMap []int) {
	g := &p.greedy
	g.src = rankSlots(g.src, p.src.nodeLabels, p.src.degrees)
	g.tgt = rankSlots(g.tgt, p.tgt.nodeLabels, p.tgt.degrees)
	g.nodeMap = g.align(g.nodeMap, p.paddedN)
	g.src = rankSlots(g.src, p.src.edgeLabels, p.src.cards)
	g.tgt = rankSlots(g.tgt, p.tgt.edgeLabels, p.tgt.cards)
	g.edgeMap = g.align(g.edgeMap, p.paddedM)
	return g.nodeMap, g.edgeMap
}

// greedyScratch holds greedyPerms' buffers: the ranked source and target
// slots of one entity kind, the used-target marks and both maps.
type greedyScratch struct {
	src, tgt         []int
	usedTgt          []bool
	nodeMap, edgeMap []int
}

// rankSlots fills buf with the slots 0..len(labels)-1 ordered by label
// ascending, then key (degree or cardinality) descending, then slot id.
// The order is total, so any correct sort yields the same slots.
func rankSlots(buf []int, labels []hypergraph.Label, keys []int) []int {
	s := growInts(buf, len(labels))
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

// align pairs the i-th ranked source slot with the i-th ranked target slot,
// padding the shorter side with null slots (ids ≥ its real count), and
// returns the source→target permutation over 0..padded-1 in buf.
func (g *greedyScratch) align(buf []int, padded int) []int {
	perm := growInts(buf, padded)
	for i := range perm {
		perm[i] = -1
	}
	g.usedTgt = growBools(g.usedTgt, padded)
	clear(g.usedTgt)
	k := min(len(g.src), len(g.tgt))
	for i := 0; i < k; i++ {
		perm[g.src[i]] = g.tgt[i]
		g.usedTgt[g.tgt[i]] = true
	}
	// Remaining source slots (real overhang + nulls) take the unused target
	// slots in order.
	next := 0
	for i := 0; i < padded; i++ {
		if perm[i] != -1 {
			continue
		}
		for g.usedTgt[next] {
			next++
		}
		perm[i] = next
		g.usedTgt[next] = true
	}
	return perm
}
