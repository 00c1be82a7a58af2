package search

import (
	"reflect"
	"slices"
	"testing"

	"hged/internal/gen"
	"hged/internal/hypergraph"
)

// zeroTable overwrites every column of t.
func zeroTable(t *sigTable) {
	for _, col := range [][]int32{t.n, t.m, t.incid, t.cardOff, t.cards, t.nodeOff, t.nodeCounts, t.edgeOff, t.edgeCounts} {
		clear(col)
	}
	clear(t.nodeLabels)
	clear(t.edgeLabels)
}

// checkAgainstBuild fails unless ix is byte-identical to Build over want:
// the same graphs in the same order, the same signature table and the same
// answers.
func checkAgainstBuild(t *testing.T, step string, ix *Index, want []*hypergraph.Hypergraph) {
	t.Helper()
	full := Build(want)
	if !slices.Equal(ix.graphs, full.graphs) {
		t.Fatalf("%s: corpus order differs from the spliced list", step)
	}
	if !ix.Equal(full) {
		t.Fatalf("%s: signature table differs from Build\ngot  %+v\nwant %+v", step, ix.sigs, full.sigs)
	}
	q := gen.Uniform(4, 2, 3, 3, 2, 99)
	gm, gs, err := ix.Search(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	wm, ws, err := full.Search(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gm, wm) || gs != ws {
		t.Fatalf("%s: range search diverged\ngot  %v %+v\nwant %v %+v", step, gm, gs, wm, ws)
	}
}

// TestSpliceMatchesBuild drives insertions, deletions and replacements at
// the head, middle and tail — including rows of a different size and a
// corpus taken down to empty and back — and checks every result against
// Build over the same list. Each step splices into the memory of the
// version the step before replaced, as the server does; the receiver must
// be left untouched.
func TestSpliceMatchesBuild(t *testing.T) {
	pool := corpus(12, 21) // mixed sizes, some graphs without hyperedges
	big := gen.Uniform(9, 7, 4, 3, 2, 5)
	list := slices.Clone(pool[:6])
	ix := Build(slices.Clone(list))
	var spare *Index

	apply := func(step string, at, del int, gs ...*hypergraph.Hypergraph) {
		t.Helper()
		// A fresh build over the same graphs shares no memory with ix.
		before := Build(slices.Clone(ix.graphs))
		var rows *Index // deletions pass no rows
		if len(gs) > 0 {
			rows = Build(gs)
		}
		next := ix.SpliceInto(spare, at, del, rows)
		list = slices.Concat(list[:at], gs, list[at+del:])
		checkAgainstBuild(t, step, next, list)
		if !ix.Equal(before) || !slices.Equal(ix.graphs, before.graphs) {
			t.Fatalf("%s: splicing changed the receiver", step)
		}
		spare, ix = ix, next
	}

	apply("insert head", 0, 0, pool[6])
	apply("insert middle", 3, 0, pool[7])
	apply("insert tail", len(list), 0, pool[8])
	apply("insert several", 2, 0, pool[9], pool[10])
	apply("replace with larger row", 4, 1, big)
	apply("replace with smaller row", 4, 1, pool[11])
	apply("replace head", 0, 1, big)
	apply("replace tail", len(list)-1, 1, pool[0])
	apply("delete head", 0, 1)
	apply("delete middle", 3, 1)
	apply("delete tail", len(list)-1, 1)
	apply("delete range", 1, 2)
	for len(list) > 0 {
		apply("drain", len(list)/2, 1)
	}
	if ix.Len() != 0 {
		t.Fatalf("drained index has %d rows", ix.Len())
	}
	apply("refill empty", 0, 0, pool[3])
	apply("refill tail", 1, 0, pool[1])
	apply("refill head", 0, 0, big)
}

// TestSpliceSharesNoMemory: overwriting every column of a splice result,
// fresh or written into a spare, leaves the receiver as it was.
func TestSpliceSharesNoMemory(t *testing.T) {
	graphs := corpus(8, 3)
	ix := Build(slices.Clone(graphs))
	prev := ix.Splice(2, 1, graphs[5])
	row := Build(graphs[:1])
	for _, next := range []*Index{ix.Splice(4, 1, graphs[0]), ix.SpliceInto(prev, 4, 1, row), ix.SpliceInto(ix, 4, 1, row)} {
		zeroTable(&next.sigs)
		clear(next.graphs)
		if !ix.Equal(Build(graphs)) || !slices.Equal(ix.graphs, graphs) {
			t.Fatal("writing a splice result changed the receiver")
		}
	}
}

// TestSpliceIntoReusesSpare pins the point of SpliceInto: a spare whose
// memory is large enough is written into, not replaced by fresh memory.
func TestSpliceIntoReusesSpare(t *testing.T) {
	graphs := corpus(16, 8)
	ix := Build(graphs).Splice(3, 1, graphs[3]) // a Splice result owns its memory
	spare := ix.Splice(5, 1, graphs[5])
	next := ix.SpliceInto(spare, 7, 1, Build(graphs[7:8]))
	if &next.mem.ints[:1][0] != &spare.mem.ints[:1][0] || &next.graphs[0] != &spare.mem.graphs[:1][0] {
		t.Fatal("SpliceInto allocated although the spare fits")
	}
	checkAgainstBuild(t, "into spare", next, graphs)
	// An index Build made does not own its memory (its graph list is the
	// caller's slice), so it is never written into.
	built := Build(slices.Clone(graphs))
	ix.SpliceInto(built, 7, 1, Build(graphs[7:8]))
	if !built.Equal(Build(graphs)) || !slices.Equal(built.graphs, graphs) {
		t.Fatal("SpliceInto wrote into a spare Build made")
	}
}

// TestSpliceCarriesSettings keeps the per-index knobs across a splice.
func TestSpliceCarriesSettings(t *testing.T) {
	ix := Build(corpus(3, 4))
	ix.MaxExpansions, ix.Parallelism = 1234, 3
	next := ix.Splice(1, 1)
	if next.MaxExpansions != 1234 || next.Parallelism != 3 {
		t.Fatalf("settings lost: MaxExpansions %d Parallelism %d", next.MaxExpansions, next.Parallelism)
	}
}

func TestSpliceRejectsOutOfRange(t *testing.T) {
	ix := Build(corpus(3, 4))
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Splice(%d, %d) on 3 rows did not panic", c[0], c[1])
				}
			}()
			ix.Splice(c[0], c[1])
		}()
	}
}
