package search

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"hged/internal/gen"
	"hged/internal/hypergraph"
)

// plantedCorpus is a seeded planted-community ego corpus: the deterministic
// workload the determinism contract is asserted on (run under -race in CI).
func plantedCorpus(t *testing.T) (corpus, queries []*hypergraph.Hypergraph) {
	t.Helper()
	host, _, err := gen.PlantedCommunities(gen.Config{
		Nodes: 40, Edges: 60, MeanEdgeSize: 3, NodeLabelCount: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < host.NumNodes(); v += 2 {
		corpus = append(corpus, host.Ego(hypergraph.NodeID(v)))
	}
	for _, v := range []hypergraph.NodeID{1, 7, 13} {
		queries = append(queries, host.Ego(v))
	}
	return corpus, queries
}

// The determinism contract: for every parallelism level, Search and Nearest
// return byte-identical matches AND stats to the sequential engine — also
// when MaxExpansions caps individual verifications.
func TestParallelSearchIsByteIdenticalToSequential(t *testing.T) {
	corpus, queries := plantedCorpus(t)
	churn := gen.ChurnCorpus()
	for _, w := range []struct {
		name    string
		corpus  []*hypergraph.Hypergraph
		queries []*hypergraph.Hypergraph
		cap     int64
		ks      []int
		levels  []int
	}{
		// Caps bind on some pairs of both corpora, so capped runs are
		// covered too; every fourth churn member is a query. Parallelism 1
		// takes the sequential path, like 0; the cheap churn corpus checks
		// that too.
		{"planted", corpus, queries, 10_000, []int{1, 5}, []int{2, 8}},
		{"churn", churn, everyFourth(churn), 6, []int{1, 3, 5}, []int{1, 2, 8}},
	} {
		seq := Build(w.corpus)
		seq.MaxExpansions = w.cap
		for qi, q := range w.queries {
			for _, tau := range []int{0, 3, 7} {
				wantM, wantS, err := seq.Search(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range w.levels {
					par := *seq
					par.Parallelism = p
					gotM, gotS, err := par.Search(q, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotM, wantM) || gotS != wantS {
						t.Fatalf("%s P=%d q=%d τ=%d: parallel range diverged\ngot  %v %+v\nwant %v %+v",
							w.name, p, qi, tau, gotM, gotS, wantM, wantS)
					}
				}
			}
			for _, k := range w.ks {
				wantM, wantS, err := seq.Nearest(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if wantS.PrunedByCount+wantS.PrunedByLabel+wantS.PrunedByCard+wantS.PrunedByBound+
					wantS.Verified != wantS.Candidates {
					t.Fatalf("%s q=%d k=%d: kNN stats don't add up: %+v", w.name, qi, k, wantS)
				}
				for _, p := range w.levels {
					par := *seq
					par.Parallelism = p
					gotM, gotS, err := par.Nearest(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotM, wantM) || gotS != wantS {
						t.Fatalf("%s P=%d q=%d k=%d: parallel kNN diverged\ngot  %v %+v\nwant %v %+v",
							w.name, p, qi, k, gotM, gotS, wantM, wantS)
					}
				}
			}
		}
	}
	// The churn cap must bind: some capped kNN answer differs from the
	// exact one.
	capped, exact := Build(churn), Build(churn)
	capped.MaxExpansions = 6
	for _, q := range churn {
		cm, _, _ := capped.Nearest(q, 3)
		em, _, _ := exact.Nearest(q, 3)
		if !reflect.DeepEqual(cm, em) {
			return
		}
	}
	t.Fatal("MaxExpansions 6 changed no churn kNN answer; the capped regime is not covered")
}

func everyFourth(graphs []*hypergraph.Hypergraph) []*hypergraph.Hypergraph {
	var out []*hypergraph.Hypergraph
	for i := 0; i < len(graphs); i += 4 {
		out = append(out, graphs[i])
	}
	return out
}

// Equal-distance candidates at the k boundary resolve by ascending ID: six
// identical corpus members tie at distance 0 and the cut keeps the lowest
// IDs, at every parallelism level.
func TestNearestTieBreakByAscendingID(t *testing.T) {
	base := gen.Uniform(5, 3, 3, 2, 2, 42)
	var corpus []*hypergraph.Hypergraph
	for i := 0; i < 6; i++ {
		corpus = append(corpus, base)
	}
	for i := 0; i < 4; i++ {
		corpus = append(corpus, gen.Uniform(8, 5, 3, 2, 2, int64(100+i)))
	}
	for _, p := range []int{0, 4} {
		ix := Build(corpus)
		ix.Parallelism = p
		for _, k := range []int{1, 3, 5} {
			got, _, err := ix.Nearest(base, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("P=%d k=%d: got %d matches", p, k, len(got))
			}
			for i, m := range got {
				if m.ID != i || m.Distance != 0 {
					t.Fatalf("P=%d k=%d: match %d = %+v, want {ID:%d Distance:0}", p, k, i, m, i)
				}
			}
		}
	}
}

// countdownCtx reports cancellation after a fixed number of Err() polls —
// a deterministic stand-in for a context cancelled mid-scan. Done() is
// inherited from Background (never closes); the engine only polls Err().
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestSearchCancelledBeforeStart(t *testing.T) {
	corpus, queries := plantedCorpus(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{0, 4} {
		ix := Build(corpus)
		ix.Parallelism = p
		ms, stats, err := ix.SearchContext(ctx, queries[0], 5)
		if !errors.Is(err, context.Canceled) || ms != nil {
			t.Fatalf("P=%d range: err = %v, matches = %v", p, err, ms)
		}
		if stats.Verified != 0 {
			t.Fatalf("P=%d range: verified %d after pre-cancelled context", p, stats.Verified)
		}
		if ms, _, err = ix.NearestContext(ctx, queries[0], 3); !errors.Is(err, context.Canceled) || ms != nil {
			t.Fatalf("P=%d kNN: err = %v, matches = %v", p, err, ms)
		}
	}
}

// Cancellation mid-scan returns a partial-scan error promptly instead of
// running the corpus to completion.
func TestSearchCancelledMidScan(t *testing.T) {
	corpus, queries := plantedCorpus(t)
	for _, p := range []int{0, 4} {
		ix := Build(corpus)
		ix.Parallelism = p
		ms, stats, err := ix.SearchContext(newCountdownCtx(3), queries[0], 50)
		if !errors.Is(err, context.Canceled) || ms != nil {
			t.Fatalf("P=%d range: err = %v, matches = %v", p, err, ms)
		}
		if stats.Verified == 0 || stats.Verified >= stats.Candidates {
			t.Fatalf("P=%d range: want a partial scan, got stats %+v", p, stats)
		}
		ms, stats, err = ix.NearestContext(newCountdownCtx(3), queries[0], 5)
		if !errors.Is(err, context.Canceled) || ms != nil {
			t.Fatalf("P=%d kNN: err = %v, matches = %v", p, err, ms)
		}
		if stats.Verified >= stats.Candidates {
			t.Fatalf("P=%d kNN: want a partial scan, got stats %+v", p, stats)
		}
	}
}
