package server_test

import (
	"encoding/json"
	"slices"
	"sort"
	"testing"
	"time"

	"hged/internal/server"
)

// metricKeys flattens a decoded JSON document into its key paths: objects
// contribute "a.b", arrays contribute "a[]" once whatever their length,
// and every leaf is one path.
func metricKeys(prefix string, v any, out *[]string) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			metricKeys(p, c, out)
		}
	case []any:
		*out = append(*out, prefix+"[]")
	default:
		*out = append(*out, prefix)
	}
}

// waitJob polls a job until it leaves the queued and running states.
func waitJob(t *testing.T, env *testEnv, id string) string {
	t.Helper()
	var job struct {
		State string `json:"state"`
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if code := env.do("GET", "/v1/jobs/"+id, nil, &job); code != 200 {
			t.Fatalf("poll status %d", code)
		}
		if job.State != "queued" && job.State != "running" {
			return job.State
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, job.State)
		}
	}
}

// TestMetricsWireShape pins the key set of GET /metrics after a session
// that touches every section: requests, distance, σ, search, mutation,
// delete and a job. A key may only appear, vanish or move together with
// this list, whatever the server stores the counters in.
func TestMetricsWireShape(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	for _, c := range []struct {
		method, path string
		body         any
		want         int
	}{
		{"POST", "/v1/graphs/fig1/distance", map[string]any{"u": 0, "v": 1}, 200},
		{"POST", "/v1/graphs/fig1/sigma", map[string]any{"pairs": [][2]int{{0, 1}}}, 200},
		{"POST", "/v1/search", map[string]any{"query": map[string]any{"name": "fig1"}, "tau": 2}, 200},
		{"POST", "/v1/graphs/fig1/edges", map[string]any{"addEdges": []map[string]any{{"label": 1, "nodes": []int{0, 1}}}}, 200},
		{"DELETE", "/v1/graphs/planted", nil, 200},
	} {
		if code := env.do(c.method, c.path, c.body, nil); code != c.want {
			t.Fatalf("%s %s: status %d, want %d", c.method, c.path, code, c.want)
		}
	}
	var sub struct {
		ID string `json:"id"`
	}
	if code := env.do("POST", "/v1/graphs/fig1/predict", map[string]any{"lambda": 2, "tau": 3}, &sub); code != 202 {
		t.Fatalf("submit status %d", code)
	}
	if state := waitJob(t, env, sub.ID); state != "done" {
		t.Fatalf("job ended %q", state)
	}

	var doc map[string]any
	if code := env.do("GET", "/metrics", nil, &doc); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	var got []string
	metricKeys("", doc, &got)
	sort.Strings(got)
	var want []string
	for _, route := range []string{
		"DELETE /v1/graphs/{name}",
		"GET /v1/jobs/{id}",
		"POST /v1/graphs/{name}/distance",
		"POST /v1/graphs/{name}/edges",
		"POST /v1/graphs/{name}/predict",
		"POST /v1/graphs/{name}/sigma",
		"POST /v1/search",
	} {
		status := "200"
		if route == "POST /v1/graphs/{name}/predict" {
			status = "202"
		}
		want = append(want,
			"requests."+route+".latency.count",
			"requests."+route+".latency.counts[]",
			"requests."+route+".latency.sumMs",
			"requests."+route+".status."+status,
		)
	}
	want = append(want,
		"hged.expansions",
		"sigmaCache.computed", "sigmaCache.hits", "sigmaCache.deduped", "sigmaCache.expanded",
		"jobs.submitted", "jobs.done", "jobs.failed", "jobs.cancelled", "jobs.queued", "jobs.running",
		"search.range", "search.knn", "search.candidates",
		"search.prunedByCount", "search.prunedByLabel", "search.prunedByCard", "search.prunedByBound",
		"search.verified", "search.verifiedWithin",
		"search.latency.count", "search.latency.counts[]", "search.latency.sumMs",
		"snapshot.source", "snapshot.loadNs", "snapshot.bytes", "snapshot.graphs",
		"solverPool.hits", "solverPool.misses",
		"versions.generationsPublished", "versions.pinnedReaders", "versions.mutationBatches",
		"versions.nodesAdded", "versions.nodesRemoved", "versions.edgesAdded", "versions.edgesRemoved",
		"versions.relabeled", "versions.fullInvalidations", "versions.graphsDeleted",
	)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("/metrics keys:\n got %q\nwant %q", got, want)
	}
}

// sigmaCacheMetrics reads the /metrics sigmaCache section.
func sigmaCacheMetrics(t *testing.T, env *testEnv) map[string]int64 {
	t.Helper()
	var m struct {
		SigmaCache json.RawMessage `json:"sigmaCache"`
	}
	if code := env.do("GET", "/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	var out map[string]int64
	if err := json.Unmarshal(m.SigmaCache, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsSigmaCacheSurvivesDelete checks that deleting a graph keeps
// the σ work its predictors did in the sigmaCache counters: they count
// work done, which a deletion cannot undo.
func TestMetricsSigmaCacheSurvivesDelete(t *testing.T) {
	env := newTestEnv(t, server.Config{})
	if code := env.do("POST", "/v1/graphs/planted/sigma", map[string]any{"pairs": [][2]int{{0, 1}, {2, 3}, {0, 1}}}, nil); code != 200 {
		t.Fatalf("sigma status %d", code)
	}
	before := sigmaCacheMetrics(t, env)
	if before["computed"] == 0 {
		t.Fatalf("σ request left no trace: %v", before)
	}
	if code := env.do("DELETE", "/v1/graphs/planted", nil, nil); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	after := sigmaCacheMetrics(t, env)
	for k, v := range before {
		if after[k] < v {
			t.Fatalf("sigmaCache dropped on delete: %v → %v", before, after)
		}
	}
}
