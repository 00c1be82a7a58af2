package server

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"hged"
)

// LoadCorpusSnapshot cold-starts the server from a combined corpus+index
// snapshot (.hgx): every graph is installed in the registry straight from
// its frozen CSR form and the search index is adopted without recomputing a
// signature. want, when non-nil, is the set of graph names the caller
// intended to load (sorted or not — it is sorted here); a snapshot covering
// a different corpus is refused so a stale file can never shadow the
// operator's -load flags.
//
// The registry must be empty — this is a cold-start path, not a merge. On
// any error nothing is installed and the caller should fall back to loading
// source files and SaveCorpusSnapshot.
func (s *Server) LoadCorpusSnapshot(ctx context.Context, path string, want []string) error {
	if s.reg.Len() != 0 {
		return fmt.Errorf("corpus snapshot: registry already holds %d graphs", s.reg.Len())
	}
	start := time.Now()
	names, ix, nbytes, err := hged.ReadCorpusSnapshotFile(path)
	if err != nil {
		return err
	}
	// The registry serves the corpus sorted by name; an unsorted snapshot
	// would reorder result IDs relative to a rebuild.
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			return fmt.Errorf("corpus snapshot: names not strictly ascending at %d (%q after %q)", i, names[i], names[i-1])
		}
	}
	if want != nil {
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		if len(sorted) != len(names) {
			return fmt.Errorf("corpus snapshot: holds %d graphs, %d requested", len(names), len(sorted))
		}
		for i, name := range sorted {
			if names[i] != name {
				return fmt.Errorf("corpus snapshot: graph %d is %q, requested corpus has %q", i, names[i], name)
			}
		}
	}
	for _, name := range names {
		if err := validName(name); err != nil {
			return fmt.Errorf("corpus snapshot: %w", err)
		}
	}
	// All checks passed; installation cannot fail halfway (names are valid
	// and unique, graphs already validated by the snapshot reader).
	for i, name := range names {
		if _, err := s.reg.Add(name, ix.Graph(i), "snapshot:"+path); err != nil {
			return fmt.Errorf("corpus snapshot: install %q: %w", name, err)
		}
	}
	// Every restored entry starts at generation 1; record the fingerprint
	// so the first search adopts the snapshot index instead of rebuilding.
	fp, _, epochs, gens, _ := corpusState(s.reg.List())
	s.search.mu.Lock()
	s.search.ix = ix
	s.search.names = names
	s.search.epochs = epochs
	s.search.gens = gens
	s.search.fp = fp
	s.search.mu.Unlock()
	s.metrics.snapshotLoaded("hgx", time.Since(start), nbytes, len(names))
	s.cfg.Logger.Printf("corpus+index restored from %s (%d graphs, %d bytes)",
		path, len(names), nbytes)
	return nil
}

// SaveCorpusSnapshot persists the current corpus and search index as a
// combined snapshot at path, building the index first if
// the registry changed since the last build. It also records the corpus as
// "rebuilt" in the /metrics snapshot section — by construction it is only
// reached when LoadCorpusSnapshot did not serve the cold start.
func (s *Server) SaveCorpusSnapshot(ctx context.Context, path string) error {
	start := time.Now()
	ix, names, err := s.corpusIndex(ctx, false)
	if err != nil {
		return err
	}
	if err := hged.WriteCorpusSnapshotFile(path, names, ix); err != nil {
		return err
	}
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	s.metrics.snapshotLoaded("rebuilt", time.Since(start), size, len(names))
	s.cfg.Logger.Printf("corpus snapshot written to %s (%d graphs, %d bytes)", path, len(names), size)
	return nil
}
