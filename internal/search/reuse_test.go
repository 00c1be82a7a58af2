package search

import (
	"reflect"
	"testing"

	"hged/internal/hypergraph"
)

// TestBuildReusingByteIdentical proves the incremental-refresh contract:
// after one corpus graph changes, an index built with reused signature rows
// for the unchanged graphs is byte-identical — signature table, matches and
// FilterStats — to a full rebuild over the new corpus.
func TestBuildReusingByteIdentical(t *testing.T) {
	corpus, queries := plantedCorpus(t)
	prev := Build(corpus)

	// Replace one graph with a mutated next generation.
	changed := 3
	next := append([]*hypergraph.Hypergraph(nil), corpus...)
	mut := corpus[changed].Clone()
	mut.AddEdge(7, 0, hypergraph.NodeID(mut.NumNodes()-1))
	next[changed] = mut

	reuse := make([]int, len(next))
	for i := range reuse {
		if i == changed {
			reuse[i] = -1
		} else {
			reuse[i] = i
		}
	}
	inc := BuildReusing(next, prev, reuse)
	full := Build(next)

	if !inc.Equal(full) {
		t.Fatal("reused signature table differs from full rebuild")
	}
	for _, q := range queries {
		for _, tau := range []int{0, 4} {
			gm, gs, err := inc.Search(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			wm, ws, err := full.Search(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gm, wm) || gs != ws {
				t.Fatalf("τ=%d: incremental index diverged\ngot  %v %+v\nwant %v %+v", tau, gm, gs, wm, ws)
			}
		}
	}
}

// TestBuildReusingFallsBackToFullBuild covers the degenerate inputs.
func TestBuildReusingFallsBackToFullBuild(t *testing.T) {
	corpus, _ := plantedCorpus(t)
	full := Build(corpus)
	if got := BuildReusing(corpus, nil, nil); !reflect.DeepEqual(got.sigs, full.sigs) {
		t.Fatal("nil prev must behave like Build")
	}
	if got := BuildReusing(corpus, full, make([]int, 1)); !reflect.DeepEqual(got.sigs, full.sigs) {
		t.Fatal("length-mismatched reuse must behave like Build")
	}
}
