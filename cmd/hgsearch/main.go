// Command hgsearch performs hypergraph similarity search over a corpus of
// .hg files: range search (all corpus members within HGED ≤ τ of the query)
// or k-nearest-neighbour search, using the filter-and-verify index.
//
// Usage:
//
//	hgsearch -q query.hg -tau 5 corpus1.hg corpus2.hg ...
//	hgsearch -q query.hg -k 3 corpus1.hg corpus2.hg ...
//	hgsearch -q query.hg -tau 5 -egos G.hg     # corpus = all ego networks of G
//	hgsearch -q query.hg -k 3 -parallel 8 ...  # verify on 8 workers
//
// -parallel fans the verification stage over that many workers; the output
// is byte-identical to a sequential run. -corpus-snapshot persists the
// corpus and index together as one .hgx file: when it matches the corpus
// files (or when no corpus files are given at all) the graphs load straight
// into their frozen CSR form with the index adopted as-is — no parsing, no
// rebuild. Ctrl-C cancels a scan in progress.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"hged/internal/hgio"
	"hged/internal/hypergraph"
	"hged/internal/search"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hgsearch:", err)
		os.Exit(1)
	}
}

func run() error {
	query := flag.String("q", "", "query hypergraph (.hg)")
	tau := flag.Int("tau", -1, "range search threshold τ (≥ 0)")
	k := flag.Int("k", 0, "k-nearest-neighbour search (> 0)")
	egos := flag.Bool("egos", false, "treat the single corpus file as a host graph and search its ego networks")
	maxExp := flag.Int64("max-expansions", 0, "per-verification expansion budget (0 = default)")
	parallel := flag.Int("parallel", 0, "verification workers (≤ 1 = sequential)")
	corpusSnapshot := flag.String("corpus-snapshot", "", "corpus snapshot path (.hgx): loaded when it matches the corpus files (or used as the whole corpus when none are given), written after a build")
	flag.Parse()

	if *query == "" {
		flag.Usage()
		return fmt.Errorf("need -q query file")
	}
	if (*tau < 0) == (*k <= 0) {
		return fmt.Errorf("need exactly one of -tau or -k")
	}
	if *corpusSnapshot != "" && *egos {
		return fmt.Errorf("-corpus-snapshot cannot be combined with -egos (ego corpora are derived, not loaded)")
	}
	q, err := load(*query)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var corpus []*hypergraph.Hypergraph
	var describe func(id int) string
	var ix *search.Index
	if *corpusSnapshot != "" {
		ix, describe, err = fromCorpusSnapshot(*corpusSnapshot, flag.Args())
		if err != nil && flag.NArg() == 0 {
			return err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hgsearch: corpus snapshot %s unusable, loading corpus files: %v\n", *corpusSnapshot, err)
		}
	}
	if ix == nil {
		if *egos {
			if flag.NArg() != 1 {
				return fmt.Errorf("-egos takes exactly one host graph file")
			}
			host, err := load(flag.Arg(0))
			if err != nil {
				return err
			}
			for v := 0; v < host.NumNodes(); v++ {
				corpus = append(corpus, host.Ego(hypergraph.NodeID(v)))
			}
			describe = func(id int) string { return fmt.Sprintf("EGO(%d)", id) }
		} else {
			if flag.NArg() == 0 {
				return fmt.Errorf("need corpus files")
			}
			files := flag.Args()
			for _, f := range files {
				g, err := load(f)
				if err != nil {
					return err
				}
				corpus = append(corpus, g)
			}
			describe = func(id int) string { return files[id] }
		}

		ix = search.Build(corpus)
		if *corpusSnapshot != "" {
			if err := hgio.WriteCorpusSnapshotFile(*corpusSnapshot, flag.Args(), ix); err != nil {
				return fmt.Errorf("persisting corpus snapshot: %w", err)
			}
			fmt.Fprintf(os.Stderr, "hgsearch: corpus snapshot written to %s\n", *corpusSnapshot)
		}
	}
	ix.MaxExpansions = *maxExp
	ix.Parallelism = *parallel

	var matches []search.Match
	var stats search.FilterStats
	if *tau >= 0 {
		matches, stats, err = ix.SearchContext(ctx, q, *tau)
	} else {
		matches, stats, err = ix.NearestContext(ctx, q, *k)
	}
	if err != nil {
		return err
	}
	for _, m := range matches {
		fmt.Printf("HGED=%-4d %s\n", m.Distance, describe(m.ID))
	}
	fmt.Printf("corpus=%d pruned: count=%d label=%d card=%d bound=%d verified=%d (within=%d)\n",
		stats.Candidates, stats.PrunedByCount, stats.PrunedByLabel, stats.PrunedByCard,
		stats.PrunedByBound, stats.Verified, stats.VerifiedWithin)
	return nil
}

// fromCorpusSnapshot loads the corpus from a .hgx snapshot and indexes it. With corpus files on the command line the snapshot must list
// exactly those files in the same order (so result IDs mean the same thing
// a fresh build would); with none, the snapshot itself defines the corpus.
func fromCorpusSnapshot(path string, files []string) (*search.Index, func(id int) string, error) {
	names, ix, nbytes, err := hgio.ReadCorpusSnapshotFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(files) > 0 {
		if len(files) != len(names) {
			return nil, nil, fmt.Errorf("snapshot holds %d graphs, %d corpus files given", len(names), len(files))
		}
		for i, f := range files {
			if names[i] != f {
				return nil, nil, fmt.Errorf("snapshot graph %d is %q, corpus file is %q", i, names[i], f)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "hgsearch: corpus+index loaded from %s (%d graphs, %d bytes)\n",
		path, len(names), nbytes)
	return ix, func(id int) string { return names[id] }, nil
}

func load(path string) (*hypergraph.Hypergraph, error) {
	return hgio.ReadFile(path)
}
