package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"hged"
)

// sortedNames returns the model's names in ascending order.
func sortedNames(model map[string]*GraphEntry) []string {
	names := make([]string, 0, len(model))
	for name := range model {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// checkCorpus fails unless the registry agrees with model, the caller's
// own name → entry record of what is registered: Get returns the model's
// entry for every probed name the model holds and nothing for every other
// probed name, the published version lists the model's entries in name
// order, each row holds its entry's current generation, and the index is
// byte-identical to Build over those graphs.
func checkCorpus(t *testing.T, step string, r *Registry, model map[string]*GraphEntry, probe []string) {
	t.Helper()
	for _, name := range probe {
		if e, ok := r.Get(name); e != model[name] || ok != (model[name] != nil) {
			t.Fatalf("%s: Get(%q) = %p, %v; model holds %p", step, name, e, ok, model[name])
		}
	}
	names := sortedNames(model)
	c := r.corpus.Load()
	if len(c.entries) != len(names) || c.ix.Len() != len(names) {
		t.Fatalf("%s: published %d entries and %d rows, model holds %d graphs", step, len(c.entries), c.ix.Len(), len(names))
	}
	graphs := make([]*hged.Hypergraph, len(names))
	for i, name := range names {
		e := model[name]
		graphs[i] = e.Graph()
		if c.entries[i] != e {
			t.Fatalf("%s: published entry %d is %q, model has %q", step, i, c.entries[i].Name, name)
		}
		if c.ix.Graph(i) != graphs[i] {
			t.Fatalf("%s: row %d (%s) is not the entry's current generation", step, i, name)
		}
	}
	full := hged.BuildSearchIndex(graphs)
	if !c.ix.Equal(full) {
		t.Fatalf("%s: published index differs from Build over the current graphs", step)
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
// removed or replaced in the meantime — Get and the published version
// agree with the test's own name → entry model, and the published index
// equals search.Build over the model's current graphs, after every
// operation.
func TestRegistryIndexMatchesBuild(t *testing.T) {
	probe := make([]string, 40)
	for i := range probe {
		probe[i] = fmt.Sprintf("g%02d", i)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		model := make(map[string]*GraphEntry)
		var gone []*GraphEntry // removed or replaced entries
		checkCorpus(t, "empty", r, model, probe)
		for op := 0; op < 150; op++ {
			live := sortedNames(model)
			var step string
			switch k := rng.Intn(10); {
			case k < 3 || len(live) == 0:
				name := probe[rng.Intn(len(probe))]
				step = "add " + name
				e, err := r.Add(name, randomGraph(rng), "test")
				switch {
				case err == nil && model[name] == nil:
					model[name] = e
				case err == nil || model[name] == nil || !strings.Contains(err.Error(), "already loaded"):
					t.Fatalf("%s: err %v with model entry %p", step, err, model[name])
				}
			case k < 7:
				e := model[live[rng.Intn(len(live))]]
				step = "mutate " + e.Name
				if err := mutateOnce(e, rng); err != nil {
					t.Fatal(err)
				}
			case k < 8:
				e := model[live[rng.Intn(len(live))]]
				step = "remove " + e.Name
				if got := r.Remove(e.Name); got != e {
					t.Fatalf("%s: removed %p, want %p", step, got, e)
				}
				delete(model, e.Name)
				gone = append(gone, e)
			case k < 9:
				e := model[live[rng.Intn(len(live))]]
				step = "re-upload " + e.Name
				r.Remove(e.Name)
				fresh, err := r.Add(e.Name, randomGraph(rng), "test")
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Generation() != 1 {
					t.Fatalf("%s: generation %d, want 1", step, fresh.Generation())
				}
				model[e.Name] = fresh
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
			checkCorpus(t, fmt.Sprintf("seed %d op %d (%s)", seed, op, step), r, model, probe)
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
				n, rows := len(c.entries), c.ix.Len()
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
	// The writers' final state is unknown, so the model is read back
	// through Get; checkCorpus then holds the published rows to it.
	names := []string{"m-anchor"}
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("c%d", i))
	}
	model := make(map[string]*GraphEntry)
	for _, name := range names {
		if e, ok := s.reg.Get(name); ok {
			model[name] = e
		}
	}
	checkCorpus(t, "after concurrent writes", s.reg, model, names)
}
