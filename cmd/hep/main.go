// Command hep predicts hyperedges: it mines all (λ,τ)-hyperedges of a
// hypergraph in the .hg text format (Algorithm 4 of the paper) and prints
// them, optionally with pairwise edit-path explanations.
//
// Usage:
//
//	hep [-lambda 3] [-tau 5] [-solver bfs|dfs|heu] [-explain] [-js] G.hg
package main

import (
	"flag"
	"fmt"
	"os"

	"hged/internal/baseline"
	"hged/internal/hgio"
	"hged/internal/predict"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hep:", err)
		os.Exit(1)
	}
}

func run() error {
	lambda := flag.Int("lambda", 3, "λ: hop budget and pairwise relaxation factor")
	tau := flag.Int("tau", 5, "τ: node-similar distance budget")
	solver := flag.String("solver", "bfs", "HGED solver inside HEP: bfs, dfs, or heu")
	explain := flag.Bool("explain", false, "print one pairwise edit-path explanation per prediction")
	js := flag.Bool("js", false, "use the Jaccard-similarity baseline instead of HGED")
	minSim := flag.Float64("min-sim", 0.8, "JS baseline: minimum Jaccard similarity")
	maxSize := flag.Int("max-size", 8, "maximum predicted hyperedge cardinality")
	maxExp := flag.Int64("max-expansions", 50_000, "per-pair search expansion budget")
	ranked := flag.Bool("ranked", false, "rank predictions by internal cohesion (tightest first)")
	workers := flag.Int("workers", 1, "parallel seed workers (identical output)")
	flag.Parse()

	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("need one graph file")
	}
	g, err := hgio.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}

	var p *predict.Predictor
	if *js {
		p, err = baseline.NewJS(g, baseline.JSOptions{Lambda: *lambda, MinSim: *minSim, MaxSize: *maxSize})
	} else {
		var alg predict.Algorithm
		if alg, err = predict.ParseAlgorithm(*solver); err != nil {
			return err
		}
		p, err = predict.New(g, predict.Options{
			Lambda: *lambda, Tau: *tau, Algorithm: alg,
			MaxSize: *maxSize, MaxExpansions: *maxExp, Parallelism: *workers,
		})
	}
	if err != nil {
		return err
	}

	var preds []predict.Prediction
	var scores []int
	if *ranked {
		for _, r := range p.RunRanked() {
			preds = append(preds, r.Prediction)
			scores = append(scores, r.Score)
		}
	} else {
		preds = p.Run()
	}
	fmt.Printf("predicted %d (λ=%d, τ=%d)-hyperedges on %d nodes / %d hyperedges\n",
		len(preds), *lambda, *tau, g.NumNodes(), g.NumEdges())
	for i, pr := range preds {
		if *ranked {
			fmt.Printf("%4d: %v (seed %d, cohesion %d)\n", i+1, pr.Nodes, pr.Seed, scores[i])
		} else {
			fmt.Printf("%4d: %v (seed %d)\n", i+1, pr.Nodes, pr.Seed)
		}
		if *explain && !*js && len(pr.Nodes) >= 2 {
			if ex, err := p.Explain(pr.Nodes[0], pr.Nodes[1]); err == nil {
				fmt.Print(indent(ex.String()))
			}
		}
	}
	st := p.Stats()
	fmt.Printf("σ computations: %d (cache hits %d), components: %d, search states: %d\n",
		st.PairsComputed, st.PairsCached, st.Components, st.Expanded)
	return nil
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += "      " + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += "      " + s[start:] + "\n"
	}
	return out
}
