package server

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"hged"
)

// LoadCorpusSnapshot cold-starts the server from a corpus snapshot (.hgx):
// every graph is installed in the registry as decoded, its CSR view already
// built, and the search index the reader built over those graphs is
// published as it is. want, when non-nil, is the set of graph names the caller
// intended to load (sorted or not — it is sorted here); a snapshot covering
// a different corpus is refused so a stale file can never shadow the
// operator's -load flags.
//
// The registry must be empty — this is a cold-start path, not a merge. On
// any error nothing is installed and the caller should fall back to loading
// source files and SaveCorpusSnapshot.
func (s *Server) LoadCorpusSnapshot(ctx context.Context, path string, want []string) error {
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
	// One registry write installs every entry and publishes the reader's
	// index: no row is recomputed or spliced.
	if err := s.reg.restore(names, ix, "snapshot:"+path); err != nil {
		return fmt.Errorf("corpus snapshot: %w", err)
	}
	s.metrics.snapshotLoaded("hgx", time.Since(start), nbytes, len(names))
	s.cfg.Logger.Printf("corpus+index restored from %s (%d graphs, %d bytes)",
		path, len(names), nbytes)
	return nil
}

// SaveCorpusSnapshot persists the published corpus version's names and
// graphs as a snapshot at path. It also records the corpus as
// "rebuilt" in the /metrics snapshot section — by construction it is only
// reached when LoadCorpusSnapshot did not serve the cold start.
func (s *Server) SaveCorpusSnapshot(ctx context.Context, path string) error {
	start := time.Now()
	c := s.reg.pin()
	defer c.unpin()
	names := make([]string, len(c.entries))
	for i, e := range c.entries {
		names[i] = e.Name
	}
	if err := hged.WriteCorpusSnapshotFile(path, names, c.ix); err != nil {
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
