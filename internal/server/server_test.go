package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hged"
	"hged/internal/server"
)

// testEnv is one running server over httptest with the Fig. 1 graph and a
// seeded planted-community graph loaded.
type testEnv struct {
	t       *testing.T
	srv     *server.Server
	ts      *httptest.Server
	planted *hged.Hypergraph
}

func newTestEnv(t *testing.T, cfg server.Config) *testEnv {
	t.Helper()
	s := server.New(cfg)
	if _, err := s.Registry().Add("fig1", hged.Fig1(), "builtin"); err != nil {
		t.Fatal(err)
	}
	planted, _, err := hged.GeneratePlanted(hged.GenConfig{Nodes: 30, Edges: 45, Seed: 7, NodeLabelCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("planted", planted, "builtin"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	env := &testEnv{t: t, srv: s, ts: ts, planted: planted}
	t.Cleanup(func() {
		ts.Close()
		closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(closeCtx)
	})
	return env
}

func (e *testEnv) do(method, path string, body any, out any) int {
	e.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			e.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			e.t.Fatalf("%s %s: bad JSON %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

func TestGraphListAndStats(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	var list struct {
		Graphs []struct {
			Name  string `json:"name"`
			Nodes int    `json:"nodes"`
			Edges int    `json:"edges"`
		} `json:"graphs"`
	}
	if code := env.do("GET", "/v1/graphs", nil, &list); code != 200 {
		t.Fatalf("list status %d", code)
	}
	if len(list.Graphs) != 2 || list.Graphs[0].Name != "fig1" || list.Graphs[1].Name != "planted" {
		t.Fatalf("graphs = %+v", list.Graphs)
	}
	if list.Graphs[0].Nodes != 8 || list.Graphs[0].Edges != 4 {
		t.Fatalf("fig1 shape = %+v, want 8 nodes / 4 hyperedges", list.Graphs[0])
	}
	var stats struct {
		Name  string     `json:"name"`
		Stats hged.Stats `json:"stats"`
	}
	if code := env.do("GET", "/v1/graphs/fig1/stats", nil, &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if stats.Stats.Nodes != 8 {
		t.Fatalf("stats = %+v", stats.Stats)
	}
	if code := env.do("GET", "/v1/graphs/nope/stats", nil, nil); code != 404 {
		t.Fatalf("missing graph status %d, want 404", code)
	}
}

func TestDistanceWithExplanation(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	var resp struct {
		Distance    int             `json:"distance"`
		Exact       bool            `json:"exact"`
		Explanation []string        `json:"explanation"`
		Ops         json.RawMessage `json:"ops"`
	}
	body := map[string]any{"u": 0, "v": 1, "explain": true}
	if code := env.do("POST", "/v1/graphs/fig1/distance", body, &resp); code != 200 {
		t.Fatalf("distance status %d", code)
	}
	// Cross-check against the library's own σ computation.
	g := hged.Fig1()
	want := hged.NodeDistance(g, 0, 1, hged.Options{})
	if resp.Distance != want.Distance {
		t.Fatalf("server distance %d, library %d", resp.Distance, want.Distance)
	}
	if !resp.Exact {
		t.Fatal("expected an exact distance on Fig. 1")
	}
	if resp.Distance > 0 && len(resp.Explanation) == 0 {
		t.Fatalf("no explanation lines for distance %d", resp.Distance)
	}
	if len(resp.Ops) == 0 {
		t.Fatal("no ops payload")
	}
	// The ops payload must round-trip through the path codec.
	if _, err := hged.ReadPathJSON(bytes.NewReader(resp.Ops)); err != nil {
		t.Fatalf("ops payload unreadable: %v", err)
	}

	// Solver, threshold and cost model are per-request knobs.
	var thr struct {
		Within *bool `json:"within"`
	}
	body = map[string]any{"u": 0, "v": 1, "tau": 1, "solver": "heu",
		"costs": map[string]int{"node": 2, "edge": 2, "incidence": 1, "nodeRelabel": 1, "edgeRelabel": 1}}
	if code := env.do("POST", "/v1/graphs/fig1/distance", body, &thr); code != 200 {
		t.Fatalf("threshold distance status %d", code)
	}
	if thr.Within == nil {
		t.Fatal("tau > 0 must report within")
	}
	if code := env.do("POST", "/v1/graphs/fig1/distance", map[string]any{"u": 0, "v": 99}, nil); code != 400 {
		t.Fatalf("out-of-range node status %d, want 400", code)
	}
	if code := env.do("POST", "/v1/graphs/fig1/distance", map[string]any{"u": 0, "v": 1, "solver": "qubit"}, nil); code != 400 {
		t.Fatalf("bad solver status %d, want 400", code)
	}
	for _, costs := range []map[string]int{
		{"node": 2, "edge": 2, "incidence": 1, "nodeRelabel": 1, "edgeRelabel": 1, "hub": 1}, // unknown key
		{"node": 2, "edge": 2, "incidence": 1, "nodeRelabel": 1},                             // edgeRelabel 0
	} {
		if code := env.do("POST", "/v1/graphs/fig1/distance", map[string]any{"u": 0, "v": 1, "costs": costs}, nil); code != 400 {
			t.Fatalf("costs %v: status %d, want 400", costs, code)
		}
	}
}

// TestDistanceCappedWithinMeetsTau: a /distance reply's "within" must
// agree with its distance when the expansion cap cuts the BFS short. The
// capped search returns its incumbent without a proven exceedance; on
// these planted-graph pairs at a cap of 2 that incumbent is above τ = 3
// or 5 (distances 6 to 63), and the reply once said within:true anyway.
func TestDistanceCappedWithinMeetsTau(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	cappedAbove := 0
	for _, pair := range [][2]int{{7, 21}, {9, 17}, {16, 22}, {19, 23}} {
		for _, tau := range []int{1, 3, 5} {
			var resp struct {
				Distance int   `json:"distance"`
				Within   *bool `json:"within"`
				Exact    bool  `json:"exact"`
			}
			body := map[string]any{"u": pair[0], "v": pair[1], "tau": tau, "maxExpansions": 2}
			if code := env.do("POST", "/v1/graphs/planted/distance", body, &resp); code != 200 {
				t.Fatalf("%v τ %d: status %d", pair, tau, code)
			}
			if resp.Within == nil {
				t.Fatalf("%v τ %d: no within in the reply", pair, tau)
			}
			if *resp.Within != (resp.Distance <= tau) {
				t.Fatalf("%v τ %d: within %v for distance %d (exact %v)", pair, tau, *resp.Within, resp.Distance, resp.Exact)
			}
			if !resp.Exact && resp.Distance > tau {
				cappedAbove++
			}
		}
	}
	if cappedAbove == 0 {
		t.Fatal("no capped reply had an incumbent above τ; the test checks nothing")
	}
}

func TestSigmaBatch(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	var resp struct {
		Results []struct {
			U, V     int
			Distance int
			Within   bool
		} `json:"results"`
		Cache hged.PredictStats `json:"cache"`
	}
	body := map[string]any{"pairs": [][2]int{{0, 1}, {1, 0}, {2, 3}}, "budget": 20}
	if code := env.do("POST", "/v1/graphs/fig1/sigma", body, &resp); code != 200 {
		t.Fatalf("sigma status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if resp.Results[0].Distance != resp.Results[1].Distance {
		t.Fatal("σ must be symmetric")
	}
	// (0,1) and (1,0) share a memo entry: at most 2 distinct computations.
	if resp.Cache.PairsComputed > 2 {
		t.Fatalf("cache computed %d pairs, want ≤ 2", resp.Cache.PairsComputed)
	}
	// A repeat of the same batch is answered fully from the cache.
	before := resp.Cache.PairsComputed
	if code := env.do("POST", "/v1/graphs/fig1/sigma", body, &resp); code != 200 {
		t.Fatalf("second sigma status %d", code)
	}
	if resp.Cache.PairsComputed != before {
		t.Fatalf("repeat batch recomputed: %d → %d", before, resp.Cache.PairsComputed)
	}
}

func TestUploadAndSearch(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	// Upload a near-copy of Fig. 1 in .hg text form and an exact JSON copy.
	var hg bytes.Buffer
	if err := hged.WriteHG(&hg, hged.Fig1()); err != nil {
		t.Fatal(err)
	}
	if code := env.do("POST", "/v1/graphs", map[string]any{"name": "fig1-text", "format": "hg", "data": hg.String()}, nil); code != 201 {
		t.Fatalf("upload status %d", code)
	}
	var js bytes.Buffer
	if err := hged.WriteJSON(&js, hged.Fig1()); err != nil {
		t.Fatal(err)
	}
	if code := env.do("POST", "/v1/graphs", map[string]any{"name": "fig1-json", "format": "json", "data": js.String()}, nil); code != 201 {
		t.Fatalf("json upload status %d", code)
	}
	if code := env.do("POST", "/v1/graphs", map[string]any{"name": "fig1-json", "format": "json", "data": js.String()}, nil); code != 409 {
		t.Fatalf("duplicate upload status %d, want 409", code)
	}
	if code := env.do("POST", "/v1/graphs", map[string]any{"name": "bad", "format": "hg", "data": "nodes -3"}, nil); code != 400 {
		t.Fatalf("bad upload status %d, want 400", code)
	}

	// Range search: the three Fig. 1 copies are at distance 0 from fig1.
	var rangeResp struct {
		Matches []struct {
			Name     string `json:"name"`
			Distance int    `json:"distance"`
		} `json:"matches"`
		Stats hged.FilterStats `json:"stats"`
	}
	body := map[string]any{"query": map[string]any{"name": "fig1"}, "tau": 0}
	if code := env.do("POST", "/v1/search", body, &rangeResp); code != 200 {
		t.Fatalf("search status %d", code)
	}
	var names []string
	for _, m := range rangeResp.Matches {
		if m.Distance != 0 {
			t.Fatalf("match %+v at τ=0", m)
		}
		names = append(names, m.Name)
	}
	if fmt.Sprint(names) != "[fig1 fig1-json fig1-text]" {
		t.Fatalf("τ=0 matches = %v", names)
	}
	if rangeResp.Stats.Candidates != 4 {
		t.Fatalf("candidates = %d, want 4", rangeResp.Stats.Candidates)
	}

	// kNN with an inline query.
	var knn struct {
		Matches []struct {
			Name     string `json:"name"`
			Distance int    `json:"distance"`
		} `json:"matches"`
	}
	body = map[string]any{"query": map[string]any{"format": "hg", "data": hg.String()}, "k": 2}
	if code := env.do("POST", "/v1/search", body, &knn); code != 200 {
		t.Fatalf("kNN status %d", code)
	}
	if len(knn.Matches) != 2 || knn.Matches[0].Distance != 0 {
		t.Fatalf("kNN matches = %+v", knn.Matches)
	}

	// A parallel search returns the same matches and stats as sequential.
	var parResp struct {
		Matches []struct {
			Name     string `json:"name"`
			Distance int    `json:"distance"`
		} `json:"matches"`
		Stats hged.FilterStats `json:"stats"`
	}
	body = map[string]any{"query": map[string]any{"name": "fig1"}, "tau": 0, "parallelism": 4}
	if code := env.do("POST", "/v1/search", body, &parResp); code != 200 {
		t.Fatalf("parallel search status %d", code)
	}
	if fmt.Sprint(parResp.Matches) != fmt.Sprint(rangeResp.Matches) || parResp.Stats != rangeResp.Stats {
		t.Fatalf("parallel search diverged: %+v vs %+v", parResp, rangeResp)
	}
	if code := env.do("POST", "/v1/search", map[string]any{"query": map[string]any{"name": "fig1"}, "parallelism": -1}, nil); code != 400 {
		t.Fatalf("negative parallelism status %d, want 400", code)
	}

	// The search metrics section accumulates the three completed searches
	// and its prune counters partition the candidates.
	var metrics struct {
		Search struct {
			Range         int64 `json:"range"`
			KNN           int64 `json:"knn"`
			Candidates    int64 `json:"candidates"`
			PrunedByCount int64 `json:"prunedByCount"`
			PrunedByLabel int64 `json:"prunedByLabel"`
			PrunedByCard  int64 `json:"prunedByCard"`
			PrunedByBound int64 `json:"prunedByBound"`
			Verified      int64 `json:"verified"`
			Latency       struct {
				Count int64 `json:"count"`
			} `json:"latency"`
		} `json:"search"`
	}
	if code := env.do("GET", "/metrics", nil, &metrics); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	s := metrics.Search
	if s.Range != 2 || s.KNN != 1 || s.Latency.Count != 3 {
		t.Fatalf("search metrics = %+v, want 2 range / 1 knn / 3 observed", s)
	}
	if s.PrunedByCount+s.PrunedByLabel+s.PrunedByCard+s.PrunedByBound+s.Verified != s.Candidates {
		t.Fatalf("search prune counters don't partition candidates: %+v", s)
	}
}

// TestPredictJobLifecycle drives the acceptance scenario end to end: an
// async HEP job on the planted-community graph is submitted, polled to
// completion, its predictions verified as (λ,τ)-hyperedges, and the
// metrics reflect the traffic.
func TestPredictJobLifecycle(t *testing.T) {
	env := newTestEnv(t, server.Config{Workers: 2})
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	body := map[string]any{"lambda": 2, "tau": 3, "parallelism": 4, "timeoutSeconds": 120}
	if code := env.do("POST", "/v1/graphs/planted/predict", body, &sub); code != 202 {
		t.Fatalf("submit status %d", code)
	}
	if sub.ID == "" {
		t.Fatal("no job ID")
	}

	var job struct {
		State       string `json:"state"`
		SeedsDone   int    `json:"seedsDone"`
		SeedsTotal  int    `json:"seedsTotal"`
		Predictions []struct {
			Nodes []hged.NodeID `json:"nodes"`
			Seed  hged.NodeID   `json:"seed"`
		} `json:"predictions"`
		Stats *hged.PredictStats `json:"stats"`
		Error string             `json:"error"`
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if code := env.do("GET", "/v1/jobs/"+sub.ID, nil, &job); code != 200 {
			t.Fatalf("poll status %d", code)
		}
		if job.State == "done" || job.State == "failed" || job.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q (%d/%d seeds)", job.State, job.SeedsDone, job.SeedsTotal)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.State != "done" {
		t.Fatalf("job ended %q: %s", job.State, job.Error)
	}
	if job.SeedsTotal == 0 || job.SeedsDone != job.SeedsTotal {
		t.Fatalf("progress %d/%d after completion", job.SeedsDone, job.SeedsTotal)
	}
	if job.Stats == nil || job.Stats.PairsComputed == 0 {
		t.Fatalf("no cache statistics: %+v", job.Stats)
	}
	if len(job.Predictions) == 0 {
		t.Fatal("no predictions on the planted-community graph")
	}
	for _, p := range job.Predictions {
		if !hged.VerifyHyperedge(env.planted, p.Nodes, 2, 3) {
			t.Fatalf("prediction %v is not a verified (2,3)-hyperedge", p.Nodes)
		}
	}

	// The job list includes it.
	var list struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if code := env.do("GET", "/v1/jobs", nil, &list); code != 200 || len(list.Jobs) != 1 {
		t.Fatalf("job list = %+v", list)
	}

	// Metrics reflect the traffic.
	var metrics struct {
		Requests map[string]struct {
			Status  map[string]int64 `json:"status"`
			Latency struct {
				Count int64 `json:"count"`
			} `json:"latency"`
		} `json:"requests"`
		SigmaCache struct {
			Computed int64 `json:"computed"`
			Expanded int64 `json:"expanded"`
		} `json:"sigmaCache"`
		Jobs struct {
			Submitted int64 `json:"submitted"`
			Done      int64 `json:"done"`
		} `json:"jobs"`
	}
	if code := env.do("GET", "/metrics", nil, &metrics); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if metrics.Jobs.Submitted != 1 || metrics.Jobs.Done != 1 {
		t.Fatalf("job counters = %+v", metrics.Jobs)
	}
	if metrics.SigmaCache.Computed == 0 {
		t.Fatal("σ-cache counters not surfaced")
	}
	ep := metrics.Requests["POST /v1/graphs/{name}/predict"]
	if ep.Status["202"] != 1 || ep.Latency.Count != 1 {
		t.Fatalf("predict endpoint metrics = %+v", ep)
	}
	polls := metrics.Requests["GET /v1/jobs/{id}"]
	if polls.Status["200"] == 0 {
		t.Fatalf("poll endpoint metrics = %+v", polls)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	var hz struct {
		Status string `json:"status"`
		Graphs int    `json:"graphs"`
	}
	if code := env.do("GET", "/healthz", nil, &hz); code != 200 || hz.Status != "ok" || hz.Graphs != 2 {
		t.Fatalf("healthz = %+v", hz)
	}
	env.do("POST", "/v1/graphs/fig1/distance", map[string]any{"u": 0, "v": 1}, nil)
	var metrics struct {
		HGED struct {
			Expansions int64 `json:"expansions"`
		} `json:"hged"`
	}
	if code := env.do("GET", "/metrics", nil, &metrics); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if metrics.HGED.Expansions == 0 {
		t.Fatal("distance query left no expansion trace")
	}
}

func TestUnknownRoutes(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	if code := env.do("GET", "/v1/nope", nil, nil); code != 404 {
		t.Fatalf("unknown route status %d", code)
	}
	if code := env.do("GET", "/v1/jobs/job-999", nil, nil); code != 404 {
		t.Fatalf("unknown job status %d", code)
	}
	// Wrong method on a known path.
	if code := env.do("DELETE", "/v1/graphs", nil, nil); code != 405 {
		t.Fatalf("method not allowed status %d", code)
	}
}

func TestRequestBodyValidation(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	req, err := http.NewRequest("POST", env.ts.URL+"/v1/graphs/fig1/distance", strings.NewReader(`{"u": 0, "bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := env.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unknown field status %d, want 400", resp.StatusCode)
	}
}

// TestPredictParallelismCapped: /predict rejects a negative parallelism
// with 400, as /search does, and clamps one above the cap (32) to it; the
// job reports the worker count it runs with.
func TestPredictParallelismCapped(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	if code := env.do("POST", "/v1/graphs/fig1/predict", map[string]any{"parallelism": -1}, nil); code != 400 {
		t.Fatalf("negative parallelism status %d, want 400", code)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if code := env.do("POST", "/v1/graphs/fig1/predict", map[string]any{"lambda": 2, "tau": 3, "parallelism": 33}, &sub); code != 202 {
		t.Fatalf("submit status %d", code)
	}
	var job struct {
		Parallelism int `json:"parallelism"`
	}
	if code := env.do("GET", "/v1/jobs/"+sub.ID, nil, &job); code != 200 {
		t.Fatalf("poll status %d", code)
	}
	if job.Parallelism != 32 {
		t.Fatalf("job parallelism = %d, want the cap 32", job.Parallelism)
	}
}
