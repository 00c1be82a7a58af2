// Command bench runs the tracked solver/predict/search benchmark suite on
// seeded planted-community hypergraphs and writes a BENCH_<n>.json snapshot
// (ns/op, bytes/op, allocs/op, solver expansions) that is comparable across
// PRs. The workloads are deterministic — fixed generator seeds, fixed node
// picks — so two snapshots differ only by the code under test.
//
// Usage:
//
//	bench [-o BENCH_2.json] [-benchtime 1s] [-quick] [-bench regexp]
//	bench -compare BENCH_0.json BENCH_1.json [-fail-over 5]
//	bench -validate BENCH_1.json
//
// With no -o the snapshot goes to the next unused BENCH_<n>.json in the
// working directory. -quick runs every benchmark exactly once (schema smoke
// for CI); -compare prints a delta table between two snapshots and, with
// -fail-over, exits 1 when any shared benchmark slowed down by more than the
// given percentage; -validate checks a snapshot against the schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"testing"
	"time"

	"hged"
	"hged/internal/core"
	"hged/internal/dataset"
	"hged/internal/gen"
	"hged/internal/hgio"
	"hged/internal/hypergraph"
	"hged/internal/lint"
	"hged/internal/predict"
	"hged/internal/search"
)

// Schema identifies the snapshot format; bump on incompatible changes.
const Schema = "hged-bench/v1"

// Snapshot is the JSON shape of a BENCH_<n>.json file.
type Snapshot struct {
	Schema     string      `json:"schema"`
	CreatedAt  string      `json:"createdAt"`
	GoVersion  string      `json:"goVersion"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	MaxProcs   int         `json:"maxProcs"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []BenchLine `json:"benchmarks"`
}

// BenchLine is one benchmark's measurement.
type BenchLine struct {
	Name        string             `json:"name"`
	N           int                `json:"n"`
	NsPerOp     float64            `json:"nsPerOp"`
	BytesPerOp  int64              `json:"bytesPerOp"`
	AllocsPerOp int64              `json:"allocsPerOp"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("o", "", "output snapshot path (default: next unused BENCH_<n>.json)")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measuring time (Go benchtime syntax, e.g. 1s or 100x)")
	quick := flag.Bool("quick", false, "run each benchmark exactly once (CI schema smoke)")
	benchRe := flag.String("bench", "", "only run benchmarks matching this regexp")
	compare := flag.Bool("compare", false, "compare two snapshot files given as positional args")
	failOver := flag.Float64("fail-over", 0, "with -compare: exit 1 when any benchmark's ns/op regressed by more than this percentage (0 = report only)")
	validate := flag.String("validate", "", "validate a snapshot file against the schema and exit")
	testing.Init()
	flag.Parse()

	if *validate != "" {
		snap, err := readSnapshot(*validate)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid %s snapshot, %d benchmarks\n", *validate, snap.Schema, len(snap.Benchmarks))
		return nil
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants exactly two snapshot files, got %d", flag.NArg())
		}
		return compareSnapshots(flag.Arg(0), flag.Arg(1), *failOver)
	}

	bt := *benchtime
	if *quick {
		bt = "1x"
	}
	if err := flag.Set("test.benchtime", bt); err != nil {
		return err
	}

	var filter *regexp.Regexp
	if *benchRe != "" {
		re, err := regexp.Compile(*benchRe)
		if err != nil {
			return err
		}
		filter = re
	}

	snap := Snapshot{
		Schema:    Schema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Benchtime: bt,
	}
	stopProfile, err := startCPUProfile(flag.Lookup("test.cpuprofile").Value.String())
	if err != nil {
		return err
	}
	for _, bm := range suite() {
		if filter != nil && !filter.MatchString(bm.name) {
			continue
		}
		res := testing.Benchmark(bm.fn)
		line := BenchLine{
			Name:        bm.name,
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		if len(res.Extra) > 0 {
			line.Extra = make(map[string]float64, len(res.Extra))
			for k, v := range res.Extra {
				line.Extra[k] = v
			}
		}
		fmt.Printf("%-28s %12.0f ns/op %8d B/op %6d allocs/op%s\n",
			line.Name, line.NsPerOp, line.BytesPerOp, line.AllocsPerOp, extraString(line.Extra))
		snap.Benchmarks = append(snap.Benchmarks, line)
	}
	if err := stopProfile(); err != nil {
		return err
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool { return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name })

	path := *out
	if path == "" {
		path = nextSnapshotPath()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))
	return nil
}

// startCPUProfile starts a CPU profile of the selected benchmarks into
// path, which -test.cpuprofile names (testing.Init registers the flag);
// the returned func stops it and closes the file. An empty path profiles
// nothing.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func extraString(extra map[string]float64) string {
	if len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf(" %10.1f %s", extra[k], k)
	}
	return s
}

func nextSnapshotPath() string {
	for n := 0; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, snap.Schema, Schema)
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	for _, b := range snap.Benchmarks {
		if b.Name == "" || b.N <= 0 || b.NsPerOp <= 0 {
			return nil, fmt.Errorf("%s: malformed benchmark line %+v", path, b)
		}
	}
	return &snap, nil
}

func compareSnapshots(oldPath, newPath string, failOver float64) error {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]BenchLine, len(oldSnap.Benchmarks))
	for _, b := range oldSnap.Benchmarks {
		oldBy[b.Name] = b
	}
	fmt.Printf("%-28s %12s %12s %8s  %9s %9s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ", "old a/op", "new a/op", "Δ")
	regressed := false
	for _, nb := range newSnap.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("%-28s %38s\n", nb.Name, "(new)")
			continue
		}
		nsDelta := pctDelta(ob.NsPerOp, nb.NsPerOp)
		allocDelta := pctDelta(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp))
		fmt.Printf("%-28s %12.0f %12.0f %+7.1f%%  %9d %9d %+7.1f%%\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, nsDelta, ob.AllocsPerOp, nb.AllocsPerOp, allocDelta)
		if failOver > 0 && nsDelta > failOver {
			regressed = true
		}
	}
	if regressed {
		return fmt.Errorf("at least one benchmark regressed by more than %.1f%%", failOver)
	}
	return nil
}

func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// --------------------------------------------------------------- workloads

type benchmark struct {
	name string
	fn   func(b *testing.B)
}

// plantedHost returns the deterministic host hypergraph every solver
// workload draws from.
func plantedHost() *hged.Hypergraph {
	g, _, err := gen.PlantedCommunities(gen.Config{
		Nodes: 120, Edges: 240, MeanEdgeSize: 4, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// egoPicks returns the first k nodes of g whose ego networks have between
// minN and maxN nodes — a deterministic selection of solver-sized inputs.
func egoPicks(g *hged.Hypergraph, k, minN, maxN int) []hged.NodeID {
	var picks []hged.NodeID
	for v := 0; v < g.NumNodes() && len(picks) < k; v++ {
		n := g.Ego(hged.NodeID(v)).NumNodes()
		if n >= minN && n <= maxN {
			picks = append(picks, hged.NodeID(v))
		}
	}
	if len(picks) < k {
		panic(fmt.Sprintf("bench: only %d/%d ego picks in [%d,%d]", len(picks), k, minN, maxN))
	}
	return picks
}

func paperEgoPair() (*hged.Hypergraph, *hged.Hypergraph) {
	labels := []hged.Label{2, 2, 2, 3, 3, 1, 2, 3}
	g := hged.NewLabeledHypergraph(labels)
	g.AddEdge(10, 0, 1, 3)
	g.AddEdge(10, 3, 5, 6)
	g.AddEdge(11, 1, 2, 4)
	g.AddEdge(11, 3, 4, 6, 7)
	return g.Ego(3), g.Ego(4)
}

func suite() []benchmark {
	return []benchmark{
		{"HGED-BFS/paper-example", func(b *testing.B) {
			x, y := paperEgoPair()
			var expanded int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := hged.BFS(x, y, hged.Options{})
				if res.Distance != 6 {
					b.Fatalf("distance = %d, want 6", res.Distance)
				}
				expanded += res.Expanded
			}
			b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
		}},
		{"HGED-BFS/planted-ego", func(b *testing.B) {
			g := plantedHost()
			picks := egoPicks(g, 2, 6, 10)
			x, y := g.Ego(picks[0]), g.Ego(picks[1])
			var expanded int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expanded += hged.BFS(x, y, hged.Options{}).Expanded
			}
			b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
		}},
		// The planted ego pair has HGED 25 and lower bound 25: τ=5 is
		// rejected by the root bound before any expansion (measuring the
		// per-call setup cost HEP pays on screened σ checks), while τ=25
		// forces a full bounded search.
		{"HGED-BFS/screened", func(b *testing.B) {
			g := plantedHost()
			picks := egoPicks(g, 2, 6, 10)
			x, y := g.Ego(picks[0]), g.Ego(picks[1])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !hged.BFS(x, y, hged.Options{Threshold: 5}).Exceeded {
					b.Fatal("want exceeded")
				}
			}
		}},
		{"HGED-BFS/threshold", func(b *testing.B) {
			g := plantedHost()
			picks := egoPicks(g, 2, 6, 10)
			x, y := g.Ego(picks[0]), g.Ego(picks[1])
			var expanded int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := hged.BFS(x, y, hged.Options{Threshold: 25})
				if res.Exceeded || res.Distance != 25 {
					b.Fatalf("got (%d, exceeded=%v), want (25, false)", res.Distance, res.Exceeded)
				}
				expanded += res.Expanded
			}
			b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
		}},
		// Distance/mo is hgedd's /distance as serve-explain sends it: the
		// ego networks of hyperedge-adjacent MO replica nodes drawn from a
		// fixed seed, HGED-BFS at τ=10 with the 20k cap, edit path built.
		// Most pairs are refuted by the root bound, counted as
		// root-refuted/op.
		{"Distance/mo", benchDistanceMO},
		{"EDC-inaccurate", func(b *testing.B) {
			g := plantedHost()
			picks := egoPicks(g, 2, 6, 10)
			x, y := g.Ego(picks[0]), g.Ego(picks[1])
			n := x.NumNodes()
			if y.NumNodes() > n {
				n = y.NumNodes()
			}
			nodeMap := make([]int, n)
			for i := range nodeMap {
				nodeMap[i] = i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.EDCInaccurate(x, y, nodeMap)
			}
		}},
		{"Ego/repeat", func(b *testing.B) {
			g := plantedHost()
			pick := egoPicks(g, 1, 6, 10)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Ego(pick)
			}
		}},
		{"Ego/sweep", func(b *testing.B) {
			g := plantedHost()
			n := g.NumNodes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Ego(hged.NodeID(i % n))
			}
		}},
		{"Matrix/egos", func(b *testing.B) {
			g := plantedHost()
			picks := egoPicks(g, 6, 4, 9)
			var expanded int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hged.NodeDistanceMatrix(g, picks, hged.Options{Threshold: 8}, 1)
			}
			_ = expanded
		}},
		{"HEP/planted", func(b *testing.B) {
			g, _, err := gen.PlantedCommunities(gen.Config{
				Nodes: 40, Edges: 80, MeanEdgeSize: 3, Seed: 11,
			})
			if err != nil {
				b.Fatal(err)
			}
			var expanded int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := predict.New(g, predict.Options{Lambda: 2, Tau: 4, MaxExpansions: 5000})
				if err != nil {
					b.Fatal(err)
				}
				p.Run()
				expanded += p.Stats().Expanded
			}
			b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
		}},
		// HEP/hs is the HS replica job the hgedd benchmark submits (λ=3,
		// τ=5, 20k expansions per σ search), run sequentially so the
		// expansion count is deterministic; allocs/op tracks the per-solve
		// set-up cost of the σ hot path.
		{"HEP/hs", func(b *testing.B) {
			spec, err := dataset.Lookup("HS")
			if err != nil {
				b.Fatal(err)
			}
			g, err := spec.Replica(0)
			if err != nil {
				b.Fatal(err)
			}
			var expanded int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := predict.New(g, predict.Options{Lambda: 3, Tau: 5, MaxExpansions: 20_000})
				if err != nil {
					b.Fatal(err)
				}
				p.Run()
				expanded += p.Stats().Expanded
			}
			b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
		}},
		// HEP/amz is Table III's HEP-BFS run on the AMZ replica (75%
		// training split, seed 1; λ=3, τ=5, 10k expansions per σ search),
		// sequential: the hub-heavy case, where reading ego sets off long
		// incidence lists and setting up each σ solve weigh most.
		{"HEP/amz", func(b *testing.B) {
			spec, err := dataset.Lookup("AMZ")
			if err != nil {
				b.Fatal(err)
			}
			g, err := spec.Replica(0)
			if err != nil {
				b.Fatal(err)
			}
			train, _, err := dataset.Split(g, 0.75, 1)
			if err != nil {
				b.Fatal(err)
			}
			var expanded int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := predict.New(train, predict.Options{Lambda: 3, Tau: 5, MaxExpansions: 10_000})
				if err != nil {
					b.Fatal(err)
				}
				p.Run()
				expanded += p.Stats().Expanded
			}
			b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
		}},
		// The CSR pair measures the frozen dense-layout hot paths directly:
		// neighbors as offset-range scans over a bitset, ego extraction as
		// the uncached neighbor-scan + induced-subgraph path (Ego itself
		// memoizes, which would measure only the cache).
		{"CSR/neighbors", func(b *testing.B) {
			g := plantedHost()
			g.Freeze()
			n := g.NumNodes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Neighbors(hged.NodeID(i % n))
			}
		}},
		{"CSR/ego-bitset", func(b *testing.B) {
			g := plantedHost()
			g.Freeze()
			pick, best := hged.NodeID(0), -1
			for v := 0; v < g.NumNodes(); v++ {
				if k := g.NumNeighbors(hged.NodeID(v)); k > best {
					pick, best = hged.NodeID(v), k
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.InducedSubgraph(g.Neighbors(pick))
			}
		}},
		// filter-batch runs a range query against a corpus large enough
		// that the batched cheap-bound pass over the SoA signature table
		// dominates; verified/op records how little verification pollutes
		// the measurement.
		{"Search/filter-batch", func(b *testing.B) {
			ix, q := filterBatchWorkload()
			var verified int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := ix.Search(q, 1)
				if err != nil {
					b.Fatal(err)
				}
				verified += int64(stats.Verified)
			}
			b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
		}},
		{"Search/range", func(b *testing.B) {
			ix, q := searchWorkload()
			var verified int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := ix.Search(q, 6)
				if err != nil {
					b.Fatal(err)
				}
				verified += int64(stats.Verified)
			}
			b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
		}},
		// The -par variants run the identical workload with a 4-worker
		// verification pool; the engine guarantees byte-identical output,
		// so any delta is pure scheduling cost (or, with spare cores, gain).
		{"Search/range-par", func(b *testing.B) {
			ix, q := searchWorkload()
			ix.Parallelism = 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Search(q, 6); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Search/knn-seq", func(b *testing.B) {
			ix, q := searchWorkload()
			var verified int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := ix.Nearest(q, 4)
				if err != nil {
					b.Fatal(err)
				}
				verified += int64(stats.Verified)
			}
			b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
		}},
		{"Search/knn-par", func(b *testing.B) {
			ix, q := searchWorkload()
			ix.Parallelism = 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Nearest(q, 4); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The uni-* pair is the exact-regime linear baseline: a corpus of
		// small uniform graphs whose exact pairwise HGEDs are cheap, so no
		// verification hits the expansion cap.
		{"Search/uni-range", benchUniformRange},
		{"Search/uni-knn", benchUniformKNN},
		// churn-knn is the tie-heavy kNN of hgeddbench's corpus-churn: k=3
		// over its 256-graph corpus, each op querying the next member;
		// churn-knn-par runs it on four workers.
		{"Search/churn-knn", func(b *testing.B) { benchChurnKNN(b, 0) }},
		{"Search/churn-knn-par", func(b *testing.B) { benchChurnKNN(b, 4) }},
		// The Snapshot group measures corpus cold start: loading the
		// 256-graph filter-batch corpus from a .hgx snapshot (graphs land
		// with their CSR views built from the decoded arrays, and the index
		// is built over them) versus parsing the same corpus from .hg text
		// files and building the index. freezeBuilds/op counts CSR
		// constructions during the timed loop — the .hgx paths must report
		// 0.0, including through the first query.
		{"Snapshot/load-hgx", func(b *testing.B) {
			_, hgx := snapshotBenchEnv(b)
			before := hypergraph.FreezeBuilds()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := hgio.ReadCorpusSnapshotFile(hgx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(hypergraph.FreezeBuilds()-before)/float64(b.N), "freezeBuilds/op")
		}},
		{"Snapshot/load-text", func(b *testing.B) {
			files, _ := snapshotBenchEnv(b)
			before := hypergraph.FreezeBuilds()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loadTextCorpus(b, files)
			}
			b.StopTimer()
			b.ReportMetric(float64(hypergraph.FreezeBuilds()-before)/float64(b.N), "freezeBuilds/op")
		}},
		{"Snapshot/first-query-cold", func(b *testing.B) {
			_, hgx := snapshotBenchEnv(b)
			before := hypergraph.FreezeBuilds()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ix, _, err := hgio.ReadCorpusSnapshotFile(hgx)
				if err != nil {
					b.Fatal(err)
				}
				ix.MaxExpansions = 50_000
				if _, _, err := ix.Search(ix.Graph(17), 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			builds := hypergraph.FreezeBuilds() - before
			b.ReportMetric(float64(builds)/float64(b.N), "freezeBuilds/op")
			if builds != 0 {
				b.Fatalf("cold start from .hgx performed %d freeze rebuilds over %d ops, want 0", builds, b.N)
			}
		}},
		// The Stream group measures the MVCC streaming-update path on the
		// hyperedge-copying growth workload: publishing generations through
		// copy-on-write batches, and keeping the search index fresh
		// incrementally (one signature row recomputed, the rest copied)
		// versus the stop-the-world from-scratch rebuild it replaces.
		// index-splice is the one-row replace hgedd runs inside every
		// committed mutation batch, written into a spare version's memory
		// as the registry does.
		{"Stream/mvcc-commit", func(b *testing.B) {
			seed, steps := growthWorkload()
			var published int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				v := hypergraph.NewVersioned(seed.Clone()) // O(1): seed is frozen
				b.StartTimer()
				published += applyGrowthMVCC(v, steps, 4)
			}
			b.ReportMetric(float64(published)/float64(b.N), "generations/op")
		}},
		{"Stream/index-incremental", func(b *testing.B) {
			corpus, prev, reuse := streamIndexWorkload()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				search.BuildReusing(corpus, prev, reuse)
			}
		}},
		{"Stream/index-full", func(b *testing.B) {
			corpus, _, _ := streamIndexWorkload()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				search.Build(corpus)
			}
		}},
		{"Stream/index-splice", func(b *testing.B) {
			ix, at, g := streamSpliceWorkload()
			spare := ix.Splice(at, 1, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spare = ix.SpliceInto(spare, at, 1, search.Build([]*hged.Hypergraph{g}))
			}
		}},
		{"Stream/sigma-rebase", func(b *testing.B) {
			gen2, delta, p := sigmaRebaseWorkload(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Rebase(gen2.Graph(), delta.Invalidates)
			}
		}},
		{"Snapshot/first-query-text", func(b *testing.B) {
			files, _ := snapshotBenchEnv(b)
			before := hypergraph.FreezeBuilds()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix := loadTextCorpus(b, files)
				ix.MaxExpansions = 50_000
				if _, _, err := ix.Search(ix.Graph(17), 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(hypergraph.FreezeBuilds()-before)/float64(b.N), "freezeBuilds/op")
		}},
		// The Lint pair tracks the hgedvet gate's analysis cost over the
		// whole module (load/type-check time excluded — it is the go
		// command's, not ours): summaries is the interprocedural
		// call-graph + fact-propagation layer alone, check the full
		// six-analyzer pass on top of it. Keeping both fast is what makes
		// the gate usable pre-commit.
		{"Lint/summaries", func(b *testing.B) {
			pkgs := lintBenchPkgs(b)
			var funcs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				funcs = lint.BuildProgram(pkgs).FuncCount()
			}
			b.StopTimer()
			if funcs == 0 {
				b.Fatal("empty call graph")
			}
			b.ReportMetric(float64(funcs), "funcs")
		}},
		{"Lint/check", func(b *testing.B) {
			pkgs := lintBenchPkgs(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if diags := lint.Check(pkgs, lint.DefaultAnalyzers()); len(diags) != 0 {
					b.Fatalf("tree not clean: %d findings", len(diags))
				}
			}
		}},
	}
}

// lintPkgs caches the type-checked module for the Lint benchmarks: loading
// invokes the go command and is not what the gate's hot path measures.
var lintPkgs struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

func lintBenchPkgs(b *testing.B) []*lint.Package {
	b.Helper()
	lintPkgs.once.Do(func() {
		lintPkgs.pkgs, lintPkgs.err = lint.Load([]string{"hged/..."})
	})
	if lintPkgs.err != nil {
		b.Fatal(lintPkgs.err)
	}
	return lintPkgs.pkgs
}

// snapshotBenchEnv writes the filter-batch corpus (256 small uniform
// hypergraphs, same seed as filterBatchWorkload) to a temp dir twice over:
// as individual .hg text files and as one combined .hgx corpus snapshot.
// Setup runs outside the timed region.
func snapshotBenchEnv(b *testing.B) (files []string, hgx string) {
	b.Helper()
	dir := b.TempDir()
	rng := rand.New(rand.NewSource(23))
	corpus := make([]*hged.Hypergraph, 256)
	files = make([]string, len(corpus))
	for i := range corpus {
		corpus[i] = gen.Uniform(3+rng.Intn(5), 1+rng.Intn(4), 3, 4, 3, rng.Int63()+1)
		files[i] = filepath.Join(dir, fmt.Sprintf("g%03d.hg", i))
		f, err := os.Create(files[i])
		if err != nil {
			b.Fatal(err)
		}
		if err := hged.WriteHG(f, corpus[i]); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	ix := search.Build(corpus)
	hgx = filepath.Join(dir, "corpus.hgx")
	if err := hgio.WriteCorpusSnapshotFile(hgx, files, ix); err != nil {
		b.Fatal(err)
	}
	return files, hgx
}

// loadTextCorpus is the cold-start baseline: parse every .hg file and build
// the search index from scratch.
func loadTextCorpus(b *testing.B, files []string) *search.Index {
	b.Helper()
	corpus := make([]*hged.Hypergraph, len(files))
	for i, path := range files {
		g, err := hgio.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		corpus[i] = g
	}
	return search.Build(corpus)
}

// growthWorkload returns the frozen seed graph and deterministic growth
// stream shared by the Stream benchmarks.
func growthWorkload() (*hged.Hypergraph, []gen.GrowthStep) {
	seed, steps, err := gen.Growth(gen.GrowthConfig{
		SeedNodes: 32, SeedEdges: 48, Steps: 64, CopyProb: 0.5, ChurnProb: 0.2, Seed: 9,
	})
	if err != nil {
		panic(err)
	}
	seed.Freeze()
	return seed, steps
}

// applyGrowthMVCC replays a growth stream through copy-on-write batches of
// batchSize steps each, returning the number of generations published.
func applyGrowthMVCC(v *hypergraph.Versioned, steps []gen.GrowthStep, batchSize int) int64 {
	var published int64
	for len(steps) > 0 {
		k := batchSize
		if k > len(steps) {
			k = len(steps)
		}
		b := v.Begin()
		for _, st := range steps[:k] {
			switch st.Op {
			case gen.GrowthAddNode:
				b.AddNode(st.Label)
			case gen.GrowthAddEdge:
				b.AddEdge(st.Label, st.Nodes...)
			case gen.GrowthRemoveEdge:
				b.RemoveEdge(st.Edge)
			}
		}
		b.Commit()
		published++
		steps = steps[k:]
	}
	return published
}

// streamIndexWorkload builds a 64-graph corpus in which exactly one graph
// advanced a generation: BuildReusing recomputes its signature row and
// copies the other 63, Build recomputes all 64.
func streamIndexWorkload() ([]*hged.Hypergraph, *search.Index, []int) {
	rng := rand.New(rand.NewSource(31))
	corpus := make([]*hged.Hypergraph, 64)
	for i := range corpus {
		corpus[i] = gen.Uniform(16+rng.Intn(8), 24+rng.Intn(8), 4, 4, 3, rng.Int63()+1)
	}
	prev := search.Build(corpus)
	v := hypergraph.NewVersioned(corpus[7])
	b := v.Begin()
	b.AddEdge(5, 0, 1, 2)
	gen2, _ := b.Commit()
	next := make([]*hged.Hypergraph, len(corpus))
	reuse := make([]int, len(corpus))
	for i := range corpus {
		next[i], reuse[i] = corpus[i], i
	}
	next[7], reuse[7] = gen2.Graph(), -1
	return next, prev, reuse
}

// streamSpliceWorkload builds the churn corpus and the next generation of
// one member with a hyperedge added: Splice replaces that member's row and
// copies the other 255.
func streamSpliceWorkload() (*search.Index, int, *hged.Hypergraph) {
	corpus := gen.ChurnCorpus()
	const at = 128
	b := hypergraph.NewVersioned(corpus[at]).Begin()
	b.AddEdge(1, 0, 1, 2)
	next, _ := b.Commit()
	return search.Build(corpus), at, next.Graph()
}

// sigmaRebaseWorkload warms a σ predictor over the growth graph, commits one
// edge-adding batch, and hands back the new generation, its delta and the
// warm predictor — the rebase the server performs on every mutation.
func sigmaRebaseWorkload(b *testing.B) (*hypergraph.Generation, hypergraph.Delta, *predict.Predictor) {
	b.Helper()
	seed, steps := growthWorkload()
	g := seed.Clone()
	gen.ApplyGrowth(g, steps)
	g.Freeze()
	v := hypergraph.NewVersioned(g)
	p, err := predict.New(v.Current().Graph(), predict.Options{Lambda: 2, Tau: 4, MaxExpansions: 5000})
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	for u := 0; u+1 < n && u < 40; u += 2 {
		p.Sigma(hged.NodeID(u), hged.NodeID(u+1), 8)
	}
	bt := v.Begin()
	bt.AddEdge(7, 0, 1, 2)
	gen2, delta := bt.Commit()
	return gen2, delta, p
}

func benchUniformRange(b *testing.B) {
	ix, q := uniformSearchWorkload()
	var verified int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := ix.Search(q, 3)
		if err != nil {
			b.Fatal(err)
		}
		verified += int64(stats.Verified)
	}
	b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
}

func benchDistanceMO(b *testing.B) {
	spec, err := dataset.Lookup("MO")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Replica(0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var pairs [][2]*hged.Hypergraph
	for len(pairs) < 2000 {
		e := g.Edge(hged.EdgeID(rng.Intn(g.NumEdges())))
		if len(e.Nodes) < 2 {
			continue
		}
		i := rng.Intn(len(e.Nodes))
		j := rng.Intn(len(e.Nodes) - 1)
		if j >= i {
			j++
		}
		pairs = append(pairs, [2]*hged.Hypergraph{g.Ego(e.Nodes[i]), g.Ego(e.Nodes[j])})
	}
	opts := hged.Options{Threshold: 10, MaxExpansions: 20_000}
	var expanded, refuted int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		res, _ := hged.AlgBFS.Within(pr[0], pr[1], opts.Tau(), opts)
		expanded += res.Expanded
		if res.Exceeded && res.Expanded == 0 {
			refuted++
		}
	}
	b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
	b.ReportMetric(float64(refuted)/float64(b.N), "root-refuted/op")
}

// benchChurnKNN runs k=3 kNN over gen.ChurnCorpus at the given
// Parallelism, each op querying the next member, and reports verified/op.
func benchChurnKNN(b *testing.B, parallelism int) {
	corpus := gen.ChurnCorpus()
	ix := search.Build(corpus)
	ix.Parallelism = parallelism
	var verified int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := ix.Nearest(corpus[i%len(corpus)], 3)
		if err != nil {
			b.Fatal(err)
		}
		verified += int64(stats.Verified)
	}
	b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
}

func benchUniformKNN(b *testing.B) {
	ix, q := uniformSearchWorkload()
	var verified int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := ix.Nearest(q, 8)
		if err != nil {
			b.Fatal(err)
		}
		verified += int64(stats.Verified)
	}
	b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
}

// filterBatchWorkload builds the filter-stage corpus: 256 small uniform
// hypergraphs and a τ=1 query drawn from the corpus, so nearly every
// candidate is eliminated inside the signature filters and the benchmark
// times the batched cheap-bound pass itself.
func filterBatchWorkload() (*search.Index, *hged.Hypergraph) {
	rng := rand.New(rand.NewSource(23))
	corpus := make([]*hged.Hypergraph, 256)
	for i := range corpus {
		corpus[i] = gen.Uniform(3+rng.Intn(5), 1+rng.Intn(4), 3, 4, 3, rng.Int63()+1)
	}
	ix := search.Build(corpus)
	ix.MaxExpansions = 50_000
	return ix, corpus[17]
}

// searchWorkload builds the shared similarity-search corpus: 12 ego
// networks of the planted host, queried with the first of them.
func searchWorkload() (*search.Index, *hged.Hypergraph) {
	g := plantedHost()
	picks := egoPicks(g, 12, 4, 12)
	corpus := make([]*hged.Hypergraph, len(picks))
	for i, v := range picks {
		corpus[i] = g.Ego(v)
	}
	ix := search.Build(corpus)
	ix.MaxExpansions = 50_000
	return ix, corpus[0]
}

// uniformSearchWorkload builds the exact-regime corpus: 40 small uniform
// hypergraphs whose exact pairwise HGEDs are cheap to solve, queried with
// one of them.
func uniformSearchWorkload() (*search.Index, *hged.Hypergraph) {
	rng := rand.New(rand.NewSource(11))
	corpus := make([]*hged.Hypergraph, 40)
	for i := range corpus {
		corpus[i] = gen.Uniform(3+rng.Intn(4), rng.Intn(4), 3, 3, 2, rng.Int63()+1)
	}
	return search.Build(corpus), corpus[5]
}
