package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hged"
	"hged/internal/hypergraph"
	"hged/internal/server"
)

// corpusFiles writes a deterministic .hg corpus to dir and returns the
// name→path pairs in name order.
func corpusFiles(t *testing.T, dir string, n int) (names, paths []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		g := hged.GenerateUniform(4+i%4, 2+i%3, 3, 3, 2, int64(700+i))
		name := fmt.Sprintf("g%02d", i)
		path := filepath.Join(dir, name+".hg")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := hged.WriteHG(f, g); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		paths = append(paths, path)
	}
	return names, paths
}

// rawPost issues a request with an exact body and returns the exact
// response bytes, so two servers can be compared byte for byte.
func rawPost(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

type snapshotMetrics struct {
	Snapshot struct {
		Source string `json:"source"`
		LoadNs int64  `json:"loadNs"`
		Bytes  int64  `json:"bytes"`
		Graphs int    `json:"graphs"`
	} `json:"snapshot"`
}

// searchQueries are issued verbatim against both servers; every response
// must match byte for byte.
var searchQueries = []string{
	`{"query":{"name":"g03"},"tau":3}`,
	`{"query":{"name":"g00"},"tau":0}`,
	`{"query":{"data":"nodes 4\nlabel 0 2\nedge 1 0 1 2\nedge 2 1 3\n","format":"hg"},"tau":4}`,
	`{"query":{"data":"nodes 5\nedge 1 0 1\nedge 1 2 3 4\n","format":"hg"},"k":3}`,
	`{"query":{"name":"g05"},"k":2,"parallelism":4}`,
}

// TestCorpusSnapshotColdStart is the end-to-end differential check behind
// the .hgx format: a server cold-started from the snapshot must answer
// every search byte-identically (matches, distances, FilterStats) to the
// server that parsed the corpus from text and grew its index one row per
// registration — and the restore, which installs the snapshot's index as
// it is, must perform zero CSR freeze rebuilds.
func TestCorpusSnapshotColdStart(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "corpus.hgx")
	names, paths := corpusFiles(t, dir, 10)
	ctx := context.Background()

	// First server: text-parsed corpus, index kept by the registry,
	// persisted snapshot — the flow cmd/hgedd runs when the snapshot is
	// missing.
	first := server.New(server.Config{})
	for i, name := range names {
		if _, err := first.Registry().LoadFile(name, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.SaveCorpusSnapshot(ctx, snap); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(first.Handler())
	defer ts1.Close()
	defer first.Close(ctx)

	var wantBodies []string
	for _, q := range searchQueries {
		code, body := rawPost(t, ts1, "/v1/search", q)
		if code != 200 {
			t.Fatalf("first server: query %s: status %d: %s", q, code, body)
		}
		wantBodies = append(wantBodies, body)
	}
	var m1 snapshotMetrics
	if code := (&testEnv{t: t, ts: ts1}).do("GET", "/metrics", nil, &m1); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if m1.Snapshot.Source != "rebuilt" || m1.Snapshot.Graphs != len(names) || m1.Snapshot.Bytes <= 0 {
		t.Fatalf("first server snapshot metrics = %+v, want rebuilt", m1.Snapshot)
	}

	// Second server: cold start from the snapshot only — no graph files
	// touched, no signature computed, and (the tentpole property) no CSR
	// freeze rebuilt.
	second := server.New(server.Config{})
	before := hypergraph.FreezeBuilds()
	if err := second.LoadCorpusSnapshot(ctx, snap, names); err != nil {
		t.Fatal(err)
	}
	if rebuilds := hypergraph.FreezeBuilds() - before; rebuilds != 0 {
		t.Errorf("cold start from snapshot performed %d freeze rebuilds, want 0", rebuilds)
	}
	ts2 := httptest.NewServer(second.Handler())
	defer ts2.Close()
	defer second.Close(ctx)

	for i, q := range searchQueries {
		code, body := rawPost(t, ts2, "/v1/search", q)
		if code != 200 {
			t.Fatalf("second server: query %s: status %d: %s", q, code, body)
		}
		if body != wantBodies[i] {
			t.Errorf("query %s diverged:\ntext-built:  %s\nsnapshotted: %s", q, wantBodies[i], body)
		}
	}
	var m2 snapshotMetrics
	if code := (&testEnv{t: t, ts: ts2}).do("GET", "/metrics", nil, &m2); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if m2.Snapshot.Source != "hgx" || m2.Snapshot.Graphs != len(names) ||
		m2.Snapshot.Bytes != m1.Snapshot.Bytes || m2.Snapshot.LoadNs <= 0 {
		t.Fatalf("second server snapshot metrics = %+v, want hgx restore of %d bytes", m2.Snapshot, m1.Snapshot.Bytes)
	}
}

// TestLoadCorpusSnapshotRejects covers the fall-back triggers: a corpus
// mismatch, a non-empty registry, and a corrupt file must all error
// without installing anything.
func TestLoadCorpusSnapshotRejects(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "corpus.hgx")
	names, paths := corpusFiles(t, dir, 6)
	ctx := context.Background()

	first := server.New(server.Config{})
	for i, name := range names {
		if _, err := first.Registry().LoadFile(name, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.SaveCorpusSnapshot(ctx, snap); err != nil {
		t.Fatal(err)
	}
	defer first.Close(ctx)

	check := func(name string, s *server.Server, want []string, path string) {
		t.Helper()
		if err := s.LoadCorpusSnapshot(ctx, path, want); err == nil {
			t.Errorf("%s: load must fail", name)
		} else if s.Registry().Len() != 0 {
			t.Errorf("%s: failed load left %d graphs installed", name, s.Registry().Len())
		}
		_ = s.Close(ctx)
	}
	check("different corpus", server.New(server.Config{}),
		append([]string{"other"}, names[1:]...), snap)
	check("shorter corpus", server.New(server.Config{}), names[:4], snap)
	check("missing file", server.New(server.Config{}), names, filepath.Join(dir, "absent.hgx"))

	wire, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	wire[len(wire)/2] ^= 1
	bad := filepath.Join(dir, "bad.hgx")
	if err := os.WriteFile(bad, wire, 0o644); err != nil {
		t.Fatal(err)
	}
	check("corrupt file", server.New(server.Config{}), names, bad)

	occupied := server.New(server.Config{})
	if _, err := occupied.Registry().Add("resident", hged.Fig1(), "builtin"); err != nil {
		t.Fatal(err)
	}
	if err := occupied.LoadCorpusSnapshot(ctx, snap, names); err == nil {
		t.Error("non-empty registry: load must fail")
	}
	_ = occupied.Close(ctx)
}
