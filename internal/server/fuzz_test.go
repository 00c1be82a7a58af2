package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hged"
)

// fuzzRoutes are the POST routes FuzzHandlers drives, in the order each
// input is sent to them; the graph routes target the Fig. 1 graph.
var fuzzRoutes = []string{
	"/v1/graphs",
	"/v1/graphs/fig1/edges",
	"/v1/graphs/fig1/distance",
	"/v1/graphs/fig1/sigma",
	"/v1/graphs/fig1/predict",
	"/v1/search",
}

// FuzzHandlers sends one arbitrary body to every POST route of a fresh
// server holding the Fig. 1 graph. Every reply must be JSON with a status
// below 500, no handler may panic, and once the server has drained its
// jobs every graph's generation pins must be released.
func FuzzHandlers(f *testing.F) {
	var hg bytes.Buffer
	if err := hged.WriteHG(&hg, hged.Fig1()); err != nil {
		f.Fatal(err)
	}
	upload, _ := json.Marshal(map[string]any{"name": "fig1-text", "format": "hg", "data": hg.String()})
	inline, _ := json.Marshal(map[string]any{"query": map[string]any{"format": "hg", "data": hg.String()}, "k": 2})
	for _, seed := range []string{
		string(upload),
		string(inline),
		`{"name": "bad", "format": "hg", "data": "nodes -3"}`,
		`{"u": 0, "v": 1, "explain": true}`,
		`{"u": 0, "v": 1, "tau": 2, "solver": "dfs", "maxExpansions": 1000}`,
		`{"u": 0, "v": 1, "costs": {"node": 2, "edge": 1, "incidence": 1, "nodeRelabel": 1, "edgeRelabel": 1}}`,
		`{"u": 0, "bogus": 1}`,
		`{"u": 8, "v": 0}`,
		`{"pairs": [[0, 1], [2, 3]], "budget": 10}`,
		`{"pairs": [[0, 1]], "budget": -1, "solver": "heu"}`,
		`{"lambda": 2, "tau": 3}`,
		`{"lambda": 2, "tau": 3, "parallelism": 33, "algorithm": "bfs"}`,
		`{"lambda": 2, "tau": 3, "parallelism": -1}`,
		`{"query": {"name": "fig1"}, "tau": 0, "parallelism": 4}`,
		`{"query": {"name": "fig1"}, "parallelism": -1}`,
		`{"addNodes": [{"label": 9}, {"label": 9}], "addEdges": [{"label": 200, "nodes": [0, 8, 9]}]}`,
		`{"removeEdges": [4]}`,
		`{"removeEdges": [0, 0]}`,
		`{}`,
		`null`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1, QueueDepth: 2})
		if _, err := s.Registry().Add("fig1", hged.Fig1(), "builtin"); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for _, path := range fuzzRoutes {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") || !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("POST %s %q: status %d, Content-Type %q, non-JSON reply %q", path, body, rec.Code, ct, rec.Body)
			}
		}
		// Close drains the predict job (cancelling it after the deadline)
		// and waits for its worker, which releases the job's pin.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s.Close(ctx)
		for _, e := range s.Registry().List() {
			if n := e.vg.PinnedReaders(); n != 0 {
				t.Fatalf("%q: graph %s holds %d pinned readers after the replies", body, e.Name, n)
			}
		}
	})
}
