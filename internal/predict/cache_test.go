package predict

import (
	"slices"
	"sync"
	"testing"
	"time"

	"hged/internal/hypergraph"
)

// TestCtxInternerCollisionFree checks that distinct context ego node sets
// never share an interned id (collision-checked hashing), that equal sets —
// even via distinct slices, and within one interning round — intern to the
// same id, and that the memo key canonicalizes the pair order.
func TestCtxInternerCollisionFree(t *testing.T) {
	c := newPairCache(twoCommunities(), Options{Lambda: 3, Tau: 5, MaxEgoNodes: 64}, nil)
	sets := [][]hypergraph.NodeID{
		{},
		{0},
		{0, 1},
		{0, 2},
		{1, 2},
		{0, 1, 2},
		{0, 256},   // ID that spans more than one byte
		{1, 65536}, // ...and more than two
	}
	ids := make(map[int32][]hypergraph.NodeID)
	for _, s := range sets {
		egos := []egoRef{{set: s}}
		c.internEgos(egos)
		id := egos[0].id
		if prev, seen := ids[id]; seen {
			t.Fatalf("interner collision: %v and %v both map to id %d", prev, s, id)
		}
		ids[id] = s
	}
	round := make([]egoRef, 0, 2*len(sets))
	for _, s := range sets {
		round = append(round, egoRef{set: append([]hypergraph.NodeID(nil), s...)}, egoRef{set: slices.Clone(s)})
	}
	c.internEgos(round)
	for i, e := range round {
		if !slices.Equal(ids[e.id], sets[i/2]) {
			t.Fatalf("re-interning %v yielded id %d of %v", sets[i/2], e.id, ids[e.id])
		}
	}
	if newSigmaKey(egoPair, 3, 9) != newSigmaKey(egoPair, 9, 3) {
		t.Fatal("newSigmaKey must canonicalize the pair order")
	}
	if newSigmaKey(egoPair, 3, 9) == newSigmaKey(egoPair, 3, 8) || newSigmaKey(egoPair, 3, 9) == newSigmaKey(fullGraph, 3, 9) {
		t.Fatal("distinct ego pairs, and a node pair with the same ids, must produce distinct keys")
	}
}

// TestFullDistanceSingleflight deterministically exercises the in-flight
// deduplication path: a request for a pair that another goroutine is
// already solving must wait for that entry instead of recomputing.
func TestFullDistanceSingleflight(t *testing.T) {
	g := twoCommunities()
	c := newPairCache(g, Options{Lambda: 3, Tau: 5, MaxEgoNodes: 64}, nil)
	key := newSigmaKey(fullGraph, 1, 2)

	// Simulate an in-flight computation for (1,2).
	ch := make(chan struct{})
	c.mu.Lock()
	c.wait[key] = ch
	c.mu.Unlock()

	got := make(chan int, 1)
	go func() {
		d, _ := c.fullDistance(1, 2, 10)
		got <- d
	}()

	// Wait until the second request parks on the in-flight channel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		deduped := c.deduped
		c.mu.Unlock()
		if deduped == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never deduplicated")
		}
		time.Sleep(time.Millisecond)
	}

	// Publish the "winner's" entry and release the waiter.
	c.mu.Lock()
	c.memo[key] = cacheEntry{Dist: 3, Exact: true}
	delete(c.wait, key)
	c.mu.Unlock()
	close(ch)

	if d := <-got; d != 3 {
		t.Fatalf("waiter read %d, want the published 3", d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.computed != 0 {
		t.Fatalf("waiter recomputed (computed = %d), want 0", c.computed)
	}
	if c.hits != 1 {
		t.Fatalf("waiter should have scored a cache hit, hits = %d", c.hits)
	}
}

// TestSigmaConcurrentDedup hammers one pair from many goroutines and
// checks the cache solved it exactly once.
func TestSigmaConcurrentDedup(t *testing.T) {
	g := twoCommunities()
	p, err := New(g, Options{Lambda: 3, Tau: 5})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	dists := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dists[i], _ = p.Sigma(0, 1, 15)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if dists[i] != dists[0] {
			t.Fatalf("goroutine %d saw σ = %d, goroutine 0 saw %d", i, dists[i], dists[0])
		}
	}
	st := p.Stats()
	if st.PairsComputed != 1 {
		t.Fatalf("one pair requested %d times computed %d times, want 1", goroutines, st.PairsComputed)
	}
	if st.PairsCached != goroutines-1 {
		t.Fatalf("the other %d requests should all end as cache hits, got %d (deduped %d)",
			goroutines-1, st.PairsCached, st.PairsDeduped)
	}
}
