package server_test

import (
	"strings"
	"testing"

	"hged"
	"hged/internal/server"
)

// twoCompHG renders a two-component graph ({0..3} and {4..7}, one
// hyperedge each) in the .hg upload format.
func twoCompHG(t *testing.T) string {
	t.Helper()
	g := hged.NewLabeledHypergraph([]hged.Label{1, 1, 2, 2, 1, 1, 2, 2})
	g.AddEdge(100, 0, 1, 2, 3)
	g.AddEdge(100, 4, 5, 6, 7)
	var sb strings.Builder
	if err := hged.WriteHG(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

type mutateResponse struct {
	Name         string     `json:"name"`
	Generation   int64      `json:"generation"`
	AddedNodes   []int      `json:"addedNodes"`
	AddedEdges   []int      `json:"addedEdges"`
	RemovedEdges int        `json:"removedEdges"`
	Stats        hged.Stats `json:"stats"`
}

func TestMutationEndpoint(t *testing.T) {
	env := newTestEnv(t, server.Config{})

	// Add two labeled nodes and a hyperedge over one old and both new ones.
	var mr mutateResponse
	code := env.do("POST", "/v1/graphs/fig1/edges", map[string]any{
		"addNodes": []map[string]any{{"label": 9}, {"label": 9}},
		"addEdges": []map[string]any{{"label": 200, "nodes": []int{0, 8, 9}}},
	}, &mr)
	if code != 200 {
		t.Fatalf("mutate status %d", code)
	}
	if mr.Generation != 2 || len(mr.AddedNodes) != 2 || mr.AddedNodes[0] != 8 || len(mr.AddedEdges) != 1 || mr.AddedEdges[0] != 4 {
		t.Fatalf("mutate response = %+v", mr)
	}
	if mr.Stats.Nodes != 10 || mr.Stats.Edges != 5 {
		t.Fatalf("post-mutation stats = %+v, want 10 nodes / 5 hyperedges", mr.Stats)
	}

	// Reads see the new generation: distance between the two new nodes.
	var dist struct {
		Distance int `json:"distance"`
		Exact    bool
	}
	if code := env.do("POST", "/v1/graphs/fig1/distance", map[string]any{"u": 8, "v": 9}, &dist); code != 200 {
		t.Fatalf("distance status %d", code)
	}
	if dist.Distance != 0 {
		t.Fatalf("σ(8, 9) = %d, want 0 (isomorphic ego networks)", dist.Distance)
	}

	// Remove the edge just added; node count is untouched.
	code = env.do("POST", "/v1/graphs/fig1/edges", map[string]any{"removeEdges": []int{4}}, &mr)
	if code != 200 || mr.Generation != 3 || mr.Stats.Edges != 4 || mr.RemovedEdges != 1 {
		t.Fatalf("removal: status %d response %+v", code, mr)
	}

	// Single-edge DELETE route.
	code = env.do("DELETE", "/v1/graphs/fig1/edges/3", nil, &mr)
	if code != 200 || mr.Generation != 4 || mr.Stats.Edges != 3 {
		t.Fatalf("edge delete: status %d response %+v", code, mr)
	}

	// Invalid batches roll back atomically: the failed remove aborts the
	// whole batch, including the node added before it.
	for _, bad := range []map[string]any{
		{},
		{"addEdges": []map[string]any{{"label": 1, "nodes": []int{}}}},
		{"addEdges": []map[string]any{{"label": 1, "nodes": []int{99}}}},
		{"addNodes": []map[string]any{{"label": 1}}, "removeEdges": []int{42}},
		{"removeEdges": []int{1, 1}},
	} {
		if code := env.do("POST", "/v1/graphs/fig1/edges", bad, nil); code != 400 {
			t.Fatalf("bad mutation %v: status %d, want 400", bad, code)
		}
	}
	var stats struct {
		Generation int64      `json:"generation"`
		Stats      hged.Stats `json:"stats"`
	}
	if code := env.do("GET", "/v1/graphs/fig1/stats", nil, &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if stats.Generation != 4 || stats.Stats.Nodes != 10 || stats.Stats.Edges != 3 {
		t.Fatalf("after failed batches: %+v, want generation 4 / 10 nodes / 3 hyperedges", stats)
	}

	if code := env.do("POST", "/v1/graphs/ghost/edges", map[string]any{"removeEdges": []int{0}}, nil); code != 404 {
		t.Fatalf("mutating unknown graph: status %d, want 404", code)
	}
}

func TestSigmaCacheInvalidatedByMutation(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	if code := env.do("POST", "/v1/graphs", map[string]any{"name": "twocomp", "data": twoCompHG(t)}, nil); code != 201 {
		t.Fatalf("upload status %d", code)
	}
	type sigmaResp struct {
		Results []struct {
			U, V     int
			Distance int
			Within   bool
		} `json:"results"`
		Cache struct {
			PairsComputed int
			PairsCached   int
		} `json:"cache"`
	}
	query := map[string]any{"pairs": [][2]int{{0, 1}, {4, 5}}}
	var r1, r2, r3 sigmaResp
	if code := env.do("POST", "/v1/graphs/twocomp/sigma", query, &r1); code != 200 {
		t.Fatalf("sigma status %d", code)
	}
	if r1.Cache.PairsComputed != 2 || r1.Cache.PairsCached != 0 {
		t.Fatalf("cold cache = %+v, want 2 computed", r1.Cache)
	}
	if code := env.do("POST", "/v1/graphs/twocomp/sigma", query, &r2); code != 200 {
		t.Fatalf("sigma status %d", code)
	}
	if r2.Cache.PairsComputed != 2 || r2.Cache.PairsCached != 2 {
		t.Fatalf("warm cache = %+v, want 2 computed / 2 hits", r2.Cache)
	}

	// Mutate the first component only: (0,1) must be recomputed, (4,5)
	// must still be served from the carried-over cache.
	if code := env.do("POST", "/v1/graphs/twocomp/edges", map[string]any{
		"addEdges": []map[string]any{{"label": 300, "nodes": []int{0, 1}}},
	}, nil); code != 200 {
		t.Fatalf("mutate status %d", code)
	}
	if code := env.do("POST", "/v1/graphs/twocomp/sigma", query, &r3); code != 200 {
		t.Fatalf("sigma status %d", code)
	}
	if r3.Cache.PairsComputed != 3 {
		t.Fatalf("post-mutation computed = %d, want 3 (only the touched pair recomputed)", r3.Cache.PairsComputed)
	}
	if r3.Cache.PairsCached != 3 {
		t.Fatalf("post-mutation hits = %d, want 3 (untouched pair carried across the generation)", r3.Cache.PairsCached)
	}
	if r3.Results[1].Distance != r1.Results[1].Distance {
		t.Fatalf("untouched σ(4,5) drifted: %d → %d", r1.Results[1].Distance, r3.Results[1].Distance)
	}
}

func TestDeleteGraph(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	// Warm the search index over both graphs, then delete one.
	var res struct {
		Matches []struct {
			Name     string `json:"name"`
			Distance int
		} `json:"matches"`
	}
	search := map[string]any{"query": map[string]any{"name": "fig1"}, "tau": 0}
	if code := env.do("POST", "/v1/search", search, &res); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if len(res.Matches) != 1 || res.Matches[0].Name != "fig1" {
		t.Fatalf("warm search = %+v", res.Matches)
	}
	if code := env.do("DELETE", "/v1/graphs/planted", nil, nil); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if code := env.do("GET", "/v1/graphs/planted/stats", nil, nil); code != 404 {
		t.Fatalf("stats after delete: status %d, want 404", code)
	}
	if code := env.do("DELETE", "/v1/graphs/planted", nil, nil); code != 404 {
		t.Fatalf("double delete: status %d, want 404", code)
	}
	var list struct {
		Graphs []struct{ Name string } `json:"graphs"`
	}
	if code := env.do("GET", "/v1/graphs", nil, &list); code != 200 || len(list.Graphs) != 1 {
		t.Fatalf("list after delete = %+v (status %d)", list.Graphs, code)
	}
	// The delete dropped the graph's search-index row; the freed name is
	// immediately reusable.
	if code := env.do("POST", "/v1/search", search, &res); code != 200 {
		t.Fatalf("search status %d", code)
	}
	for _, m := range res.Matches {
		if m.Name == "planted" {
			t.Fatalf("deleted graph still matched: %+v", res.Matches)
		}
	}
	if code := env.do("POST", "/v1/graphs", map[string]any{"name": "planted", "data": twoCompHG(t)}, nil); code != 201 {
		t.Fatalf("re-upload freed name: status %d", code)
	}
}

// TestReuploadedNameInvalidatesIndex: deleting a graph and re-registering
// its name with different content — with no search in between — must not
// be served from the deleted graph's index row, even though the
// re-registered entry restarts at generation 1 and the corpus holds the
// same (name, generation) pairs as before.
func TestReuploadedNameInvalidatesIndex(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	var res struct {
		Matches []struct {
			Name     string `json:"name"`
			Distance int
		} `json:"matches"`
	}
	// Warm the index over {fig1: gen 1, planted: gen 1}.
	warm := map[string]any{"query": map[string]any{"name": "fig1"}, "tau": 0}
	if code := env.do("POST", "/v1/search", warm, &res); code != 200 || len(res.Matches) != 1 {
		t.Fatalf("warm search = %+v (status %d)", res.Matches, code)
	}
	// Replace fig1 with different content under the same name; the corpus
	// returns to {fig1: gen 1, planted: gen 1}. The delete removes fig1's
	// row and the upload inserts a row for the new content.
	if code := env.do("DELETE", "/v1/graphs/fig1", nil, nil); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if code := env.do("POST", "/v1/graphs", map[string]any{"name": "fig1", "data": twoCompHG(t)}, nil); code != 201 {
		t.Fatalf("re-upload status %d", code)
	}
	// An exact (τ=0) search for the NEW content must match it; a stale row
	// would verify against the deleted graph and return no match.
	fresh := map[string]any{"query": map[string]any{"data": twoCompHG(t)}, "tau": 0}
	if code := env.do("POST", "/v1/search", fresh, &res); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if len(res.Matches) != 1 || res.Matches[0].Name != "fig1" || res.Matches[0].Distance != 0 {
		t.Fatalf("search after re-upload = %+v, want fig1 at distance 0", res.Matches)
	}
}

// TestGraphNameRejectsControlBytes: names carrying whitespace or control
// bytes, which would make them ambiguous in URLs and request logs, are
// rejected at registration.
func TestGraphNameRejectsControlBytes(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	for _, name := range []string{"a\x00b", "a\x1eb", "a\tb", "a b", "\x7f"} {
		code := env.do("POST", "/v1/graphs", map[string]any{"name": name, "data": twoCompHG(t)}, nil)
		if code != 400 {
			t.Fatalf("upload with name %q: status %d, want 400", name, code)
		}
	}
}

// TestSearchSeesCommittedMutation pins read-your-writes: the mutation
// replaces the graph's search-index row before it replies, so the very
// next search answers over the new generation, without waiting on a
// rebuild.
func TestSearchSeesCommittedMutation(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	// The query is an inline copy of the ORIGINAL fig1, so it matches the
	// pre-mutation corpus entry at distance 0 and the mutated one at 3.
	var fig1HG strings.Builder
	if err := hged.WriteHG(&fig1HG, hged.Fig1()); err != nil {
		t.Fatal(err)
	}
	search := func() (int, []string) {
		var res struct {
			Matches []struct {
				Name string `json:"name"`
			} `json:"matches"`
		}
		code := env.do("POST", "/v1/search", map[string]any{
			"query": map[string]any{"data": fig1HG.String()}, "tau": 2,
		}, &res)
		names := make([]string, len(res.Matches))
		for i, m := range res.Matches {
			names[i] = m.Name
		}
		return code, names
	}
	if code, names := search(); code != 200 || len(names) != 1 || names[0] != "fig1" {
		t.Fatalf("warm-up search = %v (status %d)", names, code)
	}
	// Duplicate fig1's hyperedges: after this mutation the original fig1
	// is within τ=2 of nothing in the corpus.
	if code := env.do("POST", "/v1/graphs/fig1/edges", map[string]any{
		"addEdges": []map[string]any{
			{"label": 1, "nodes": []int{0, 1, 2}},
			{"label": 2, "nodes": []int{3, 4, 5}},
			{"label": 3, "nodes": []int{5, 6}},
		},
	}, nil); code != 200 {
		t.Fatalf("mutate status %d", code)
	}
	if code, names := search(); code != 200 || len(names) != 0 {
		t.Fatalf("search after mutation = %v (status %d), want no τ=2 match", names, code)
	}

	var metrics struct {
		Versions struct {
			GenerationsPublished int64 `json:"generationsPublished"`
			PinnedReaders        int64 `json:"pinnedReaders"`
			MutationBatches      int64 `json:"mutationBatches"`
			EdgesAdded           int64 `json:"edgesAdded"`
		} `json:"versions"`
	}
	if code := env.do("GET", "/metrics", nil, &metrics); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	v := metrics.Versions
	if v.GenerationsPublished != 3 || v.MutationBatches != 1 || v.EdgesAdded != 3 {
		t.Fatalf("versions churn = %+v", v)
	}
	if v.PinnedReaders != 0 {
		t.Fatalf("pinnedReaders = %d after idle, want 0", v.PinnedReaders)
	}
}
