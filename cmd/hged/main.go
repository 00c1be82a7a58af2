// Command hged computes the hypergraph edit distance between two
// hypergraphs in the .hg text format, or the node-similar distance σ(u, v)
// between two nodes of one hypergraph, printing the optimal edit path.
//
// Usage:
//
//	hged [-solver bfs|dfs|heu] [-tau N] [-explain] A.hg B.hg
//	hged [-solver bfs|dfs|heu] [-tau N] [-explain] -nodes u,v G.hg
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hged/internal/core"
	"hged/internal/hgio"
	"hged/internal/hypergraph"
	"hged/internal/predict"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hged:", err)
		os.Exit(1)
	}
}

func run() error {
	solver := flag.String("solver", "bfs", "HGED solver: bfs, dfs, or heu")
	tau := flag.Int("tau", 0, "verification threshold τ (0 = unbounded)")
	explain := flag.Bool("explain", false, "print the hypergraph edit path")
	nodes := flag.String("nodes", "", "compute σ(u,v) between node ids u,v of one input graph")
	maxExp := flag.Int64("max-expansions", 0, "search expansion budget (0 = default)")
	flag.Parse()

	alg, err := predict.ParseAlgorithm(*solver)
	if err != nil {
		return err
	}
	opts := core.Options{Threshold: *tau, MaxExpansions: *maxExp}

	var a, b *hypergraph.Hypergraph
	switch {
	case *nodes != "":
		if flag.NArg() != 1 {
			return fmt.Errorf("-nodes requires exactly one graph file")
		}
		g, err := load(flag.Arg(0))
		if err != nil {
			return err
		}
		u, v, err := parsePair(*nodes, g.NumNodes())
		if err != nil {
			return err
		}
		a, b = g.Ego(u), g.Ego(v)
		fmt.Printf("EGO(%d): %d nodes, %d hyperedges; EGO(%d): %d nodes, %d hyperedges\n",
			u, a.NumNodes(), a.NumEdges(), v, b.NumNodes(), b.NumEdges())
	case flag.NArg() == 2:
		if a, err = load(flag.Arg(0)); err != nil {
			return err
		}
		if b, err = load(flag.Arg(1)); err != nil {
			return err
		}
	default:
		flag.Usage()
		return fmt.Errorf("need two graph files, or -nodes u,v with one graph file")
	}

	res, _ := alg.Within(a, b, opts.Tau(), opts)

	switch {
	case res.Exceeded:
		fmt.Printf("HGED > %d (threshold exceeded; expanded %d states)\n", *tau, res.Expanded)
	case !res.Exact:
		fmt.Printf("HGED ≤ %d (upper bound; expansion budget hit after %d states)\n", res.Distance, res.Expanded)
	default:
		fmt.Printf("HGED = %d (expanded %d states)\n", res.Distance, res.Expanded)
	}
	if *explain && res.Path != nil {
		fmt.Print(core.ExplainString(res.Path, nil))
	}
	return nil
}

func load(path string) (*hypergraph.Hypergraph, error) {
	return hgio.ReadFile(path)
}

func parsePair(s string, n int) (hypergraph.NodeID, hypergraph.NodeID, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -nodes %q, want u,v", s)
	}
	u, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	v, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n {
		return 0, 0, fmt.Errorf("bad -nodes %q for a graph with %d nodes", s, n)
	}
	return hypergraph.NodeID(u), hypergraph.NodeID(v), nil
}
