package core

import (
	"math/rand"
	"testing"

	"hged/internal/hypergraph"
)

// permutations calls visit with every permutation of 0..n-1 (one empty
// permutation when n is 0). The slice is reused between calls.
func permutations(n int, visit func(perm []int)) {
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			visit(perm)
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				perm[i] = j
				rec(i + 1)
				used[j] = false
			}
		}
	}
	rec(0)
}

// bruteForceHGED is an exactness oracle independent of the solvers' pair
// model: it prices every pair of a padded node bijection and a padded
// hyperedge bijection straight from Definition 3 under w, reading the
// graphs through their public API, and returns the cheapest. Slots beyond a
// graph's node or hyperedge count are nulls: mapping a real entity to a null
// deletes it, the reverse inserts it, and a deleted or inserted hyperedge
// is charged its insertion or deletion plus one incidence edit per member.
func bruteForceHGED(g, h *hypergraph.Hypergraph, w CostModel) int {
	n, n2 := g.NumNodes(), h.NumNodes()
	m, m2 := g.NumEdges(), h.NumEdges()
	best := -1
	permutations(max(n, n2), func(nodeMap []int) {
		nodes := 0
		for i, j := range nodeMap {
			switch {
			case i < n && j < n2:
				if g.NodeLabel(hypergraph.NodeID(i)) != h.NodeLabel(hypergraph.NodeID(j)) {
					nodes += w.NodeRelabel
				}
			case i < n || j < n2:
				nodes += w.Node
			}
		}
		permutations(max(m, m2), func(edgeMap []int) {
			total := nodes
			for e, f := range edgeMap {
				switch {
				case e < m && f < m2:
					src, tgt := g.Edge(hypergraph.EdgeID(e)), h.Edge(hypergraph.EdgeID(f))
					if src.Label != tgt.Label {
						total += w.EdgeRelabel
					}
					// |nodeMap(E) Δ E'|: members of E whose image is
					// not in E', plus members of E' with no preimage in E.
					image := make(map[int]bool, len(src.Nodes))
					for _, u := range src.Nodes {
						image[nodeMap[u]] = true
					}
					diff := 0
					for j := range image {
						if !tgt.Contains(hypergraph.NodeID(j)) {
							diff++
						}
					}
					for _, v := range tgt.Nodes {
						if !image[int(v)] {
							diff++
						}
					}
					total += diff * w.Incidence
				case e < m:
					total += w.Edge + g.Edge(hypergraph.EdgeID(e)).Arity()*w.Incidence
				case f < m2:
					total += w.Edge + h.Edge(hypergraph.EdgeID(f)).Arity()*w.Incidence
				}
			}
			if best < 0 || total < best {
				best = total
			}
		})
	})
	return best
}

// TestSolversMatchBruteForceOracle checks every solver against the
// brute-force oracle on random pairs of at most 4 nodes and 3 hyperedges,
// under unit costs and a weighted model: HGED-BFS and HGED-DFS must
// return the oracle's distance, HGED-HEU at least it.
// Every returned path must turn the source into a graph isomorphic to the
// target, at the reported distance (HEU: between the oracle and its
// heuristic instance).
func TestSolversMatchBruteForceOracle(t *testing.T) {
	models := []CostModel{UnitCosts(), {Node: 2, Edge: 3, Incidence: 1, NodeRelabel: 3, EdgeRelabel: 2}}
	solvers := []struct {
		name  string
		solve func(g, h *hypergraph.Hypergraph, opts Options) Result
		exact bool
	}{
		{"BFS", BFS, true},
		{"DFS", DFS, true},
		{"HEU", HEU, false},
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		a := randomHypergraph(rng, 4, 3, 3)
		b := randomHypergraph(rng, 4, 3, 3)
		for _, w := range models {
			want := bruteForceHGED(a, b, w)
			for _, s := range solvers {
				res := s.solve(a, b, Options{Costs: &w})
				if !res.Exact || res.Exceeded || res.Cancelled {
					t.Fatalf("trial %d %s %+v: unthresholded result %+v not exact", trial, s.name, w, res)
				}
				if s.exact && res.Distance != want || res.Distance < want {
					t.Fatalf("trial %d %s %+v: distance %d, oracle %d\na=%v\nb=%v", trial, s.name, w, res.Distance, want, a, b)
				}
				if res.Path == nil {
					t.Fatalf("trial %d %s %+v: no path\na=%v\nb=%v", trial, s.name, w, a, b)
				}
				cost := res.Path.WeightedCost(w)
				if s.exact && cost != res.Distance || cost < want || cost > res.Distance {
					t.Fatalf("trial %d %s %+v: path cost %d, distance %d, oracle %d", trial, s.name, w, cost, res.Distance, want)
				}
				got, err := res.Path.Apply(a)
				if err != nil {
					t.Fatalf("trial %d %s %+v: apply: %v", trial, s.name, w, err)
				}
				if !hypergraph.Isomorphic(got, b) {
					t.Fatalf("trial %d %s %+v: path does not reach the target\na=%v\nb=%v\ngot=%v", trial, s.name, w, a, b, got)
				}
			}
		}
	}
}
