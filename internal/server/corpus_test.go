package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"hged"
)

// sameTable reports whether two index snapshots hold the same bytes column
// by column; a nil and an empty column are the same bytes.
func sameTable(a, b *hged.SearchIndex) bool {
	va, vb := reflect.ValueOf(a.Snapshot()).Elem(), reflect.ValueOf(b.Snapshot()).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Len() != fb.Len() {
			return false
		}
		if fa.Len() > 0 && !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return false
		}
	}
	return true
}

// checkCorpus fails unless the published corpus version lists exactly the
// registered names in ascending order, each row holds its entry's current
// generation, and the index is byte-identical to Build over those graphs.
func checkCorpus(t *testing.T, step string, r *Registry) {
	t.Helper()
	c := r.corpus.Load()
	entries := r.List()
	graphs := make([]*hged.Hypergraph, len(entries))
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i], graphs[i] = e.Name, e.Graph()
	}
	if !slices.Equal(c.names, names) {
		t.Fatalf("%s: published names %v, registry holds %v", step, c.names, names)
	}
	if c.ix.Len() != len(graphs) {
		t.Fatalf("%s: index has %d rows for %d graphs", step, c.ix.Len(), len(graphs))
	}
	for i, g := range graphs {
		if c.ix.Graph(i) != g {
			t.Fatalf("%s: row %d (%s) is not the entry's current generation", step, i, names[i])
		}
	}
	full := hged.BuildSearchIndex(graphs)
	if !sameTable(c.ix, full) {
		t.Fatalf("%s: published index differs from Build over the current graphs", step)
	}
	if !slices.Equal(c.ix.SignatureDigests(), full.SignatureDigests()) {
		t.Fatalf("%s: signature digests differ from Build", step)
	}
}

// randomGraph draws a small uniform graph; sizes vary so replaced rows
// change the arena lengths.
func randomGraph(rng *rand.Rand) *hged.Hypergraph {
	return hged.GenerateUniform(2+rng.Intn(5), rng.Intn(4), 3, 3, 2, rng.Int63()+1)
}

// mutateOnce commits one batch to e: add a hyperedge, or remove one.
func mutateOnce(e *GraphEntry, rng *rand.Rand) error {
	add := rng.Intn(2) == 0
	pick := rng.Int()
	_, _, _, err := e.Mutate(func(b *hged.GraphBatch) error {
		g := b.Graph()
		if !add && g.NumEdges() > 0 {
			b.RemoveEdge(hged.EdgeID(pick % g.NumEdges()))
			return nil
		}
		n := g.NumNodes()
		b.AddEdge(hged.Label(pick%3), hged.NodeID(pick%n), hged.NodeID((pick/7)%n))
		return nil
	})
	return err
}

// TestRegistryIndexMatchesBuild is the registry-level property: over random
// sequences of Add, Mutate, Remove and same-name re-uploads (different
// content, generation restarting at 1) — and commits on entries that were
// removed or replaced in the meantime — the published index equals
// search.Build over the sorted current corpus after every operation.
func TestRegistryIndexMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		var gone []*GraphEntry // removed or replaced entries
		checkCorpus(t, "empty", r)
		for op := 0; op < 150; op++ {
			entries := r.List()
			var step string
			switch k := rng.Intn(10); {
			case k < 3 || len(entries) == 0:
				name := fmt.Sprintf("g%02d", rng.Intn(40))
				step = "add " + name
				if _, err := r.Add(name, randomGraph(rng), "test"); err != nil && !strings.Contains(err.Error(), "already loaded") {
					t.Fatal(err)
				}
			case k < 7:
				e := entries[rng.Intn(len(entries))]
				step = "mutate " + e.Name
				if err := mutateOnce(e, rng); err != nil {
					t.Fatal(err)
				}
			case k < 8:
				e := entries[rng.Intn(len(entries))]
				step = "remove " + e.Name
				if !r.Remove(e.Name) {
					t.Fatalf("%s: not found", step)
				}
				gone = append(gone, e)
			case k < 9:
				e := entries[rng.Intn(len(entries))]
				step = "re-upload " + e.Name
				r.Remove(e.Name)
				fresh, err := r.Add(e.Name, randomGraph(rng), "test")
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Generation() != 1 {
					t.Fatalf("%s: generation %d, want 1", step, fresh.Generation())
				}
				gone = append(gone, e)
			default:
				if len(gone) == 0 {
					continue
				}
				e := gone[rng.Intn(len(gone))]
				step = "late commit on " + e.Name
				if err := mutateOnce(e, rng); err != nil {
					t.Fatal(err)
				}
			}
			checkCorpus(t, fmt.Sprintf("seed %d op %d (%s)", seed, op, step), r)
		}
	}
}

// TestConcurrentWritesAndSearches races writers (uploads, mutation
// batches, deletes, re-uploads) against searches through the handler. An
// anchor graph no writer touches must be the one exact match of every
// search for it, whatever the rows around it do; afterwards the published
// index must equal Build over the final corpus. Run it under -race.
func TestConcurrentWritesAndSearches(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() { _ = s.Close(context.Background()) })
	// The anchor is larger than any churn graph, so nothing else is
	// isomorphic to it.
	anchor := hged.GenerateUniform(8, 5, 3, 3, 2, 77)
	var anchorHG strings.Builder
	if err := hged.WriteHG(&anchorHG, anchor); err != nil {
		t.Fatal(err)
	}
	if _, err := s.reg.Add("m-anchor", anchor, "test"); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"query": map[string]any{"data": anchorHG.String()}, "tau": 0})
	if err != nil {
		t.Fatal(err)
	}

	const writers, searchers, ops = 3, 3, 150
	var wg sync.WaitGroup
	errs := make(chan error, writers+searchers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for op := 0; op < ops; op++ {
				// Writers share names, so their writes collide.
				name := fmt.Sprintf("c%d", rng.Intn(8))
				switch rng.Intn(4) {
				case 0:
					_, _ = s.reg.Add(name, randomGraph(rng), "test")
				case 1:
					s.reg.Remove(name)
				case 2:
					s.reg.Remove(name)
					_, _ = s.reg.Add(name, randomGraph(rng), "test")
				default:
					if e, ok := s.reg.Get(name); ok {
						if err := mutateOnce(e, rng); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(w)
	}
	for q := 0; q < searchers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(string(body)))
				s.Handler().ServeHTTP(rec, req)
				var res struct {
					Matches []searchMatch `json:"matches"`
				}
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("search status %d: %s", rec.Code, rec.Body)
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					errs <- err
					return
				}
				if len(res.Matches) != 1 || res.Matches[0] != (searchMatch{Name: "m-anchor"}) {
					errs <- fmt.Errorf("anchor search = %+v, want m-anchor at 0", res.Matches)
					return
				}
				c := s.reg.pin()
				n, rows := len(c.names), c.ix.Len()
				c.unpin()
				if n != rows {
					errs <- fmt.Errorf("published %d names for %d rows", n, rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkCorpus(t, "after concurrent writes", s.reg)
}
