package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hged/internal/gen"
)

// TestSnapshotRoundTrip restores an index from its own snapshot and checks
// that matches and FilterStats for range and kNN queries are identical to
// the original.
func TestSnapshotRoundTrip(t *testing.T) {
	graphs := corpus(36, 17)
	ix := Build(graphs)
	re, err := FromSnapshot(graphs, ix.Snapshot())
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		q := gen.Uniform(3+rng.Intn(4), rng.Intn(4), 3, 3, 2, rng.Int63()+1)
		tau := rng.Intn(7)
		m1, s1, err1 := ix.Search(q, tau)
		m2, s2, err2 := re.Search(q, tau)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fmt.Sprint(m1) != fmt.Sprint(m2) || s1 != s2 {
			t.Fatalf("trial %d: range diverged\n%v %+v\n%v %+v", trial, m1, s1, m2, s2)
		}
		k := 1 + rng.Intn(5)
		m1, s1, err1 = ix.Nearest(q, k)
		m2, s2, err2 = re.Nearest(q, k)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fmt.Sprint(m1) != fmt.Sprint(m2) || s1 != s2 {
			t.Fatalf("trial %d: kNN diverged\n%v %+v\n%v %+v", trial, m1, s1, m2, s2)
		}
	}
	if fmt.Sprint(ix.SignatureDigests()) != fmt.Sprint(re.SignatureDigests()) {
		t.Fatal("digests diverged")
	}
}

// Digests are order-sensitive and content-sensitive.
func TestSignatureDigests(t *testing.T) {
	corpusGraphs, _ := plantedCorpus(t)
	a := Build(corpusGraphs).SignatureDigests()
	b := Build(corpusGraphs).SignatureDigests()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("digests must be deterministic")
	}
	seen := map[uint64]int{}
	for _, d := range a {
		seen[d]++
	}
	if len(seen) < 2 {
		t.Fatal("digests of distinct graphs should differ")
	}
}

// TestFromSnapshotRejects checks that corpus mismatches and inconsistent
// tables are refused rather than installed.
func TestFromSnapshotRejects(t *testing.T) {
	graphs := corpus(12, 5)
	ix := Build(graphs)
	s := ix.Snapshot()

	if _, err := FromSnapshot(graphs[:11], s); err == nil {
		t.Error("accepted snapshot over a shorter corpus")
	}
	other := corpus(12, 6)
	if _, err := FromSnapshot(other, s); err == nil {
		t.Error("accepted snapshot against a different corpus")
	}

	tamper := *s
	tamper.Digests = append([]uint64(nil), s.Digests...)
	tamper.Digests[3] ^= 1
	if _, err := FromSnapshot(graphs, &tamper); err == nil {
		t.Error("accepted snapshot with a tampered digest")
	}

	tamper = *s
	tamper.Incid = append([]int32(nil), s.Incid...)
	tamper.Incid[0]++
	if _, err := FromSnapshot(graphs, &tamper); err == nil {
		t.Error("accepted snapshot with an inconsistent incid column")
	}

	tamper = *s
	tamper.CardOff = append([]int32(nil), s.CardOff...)
	tamper.CardOff[1] = -1
	if _, err := FromSnapshot(graphs, &tamper); err == nil {
		t.Error("accepted snapshot with decreasing offsets")
	}
}
