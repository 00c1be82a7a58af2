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

// plantEdits returns k random edit operations of Definition 3 that are
// valid, in order, on g: a node is deleted only once no hyperedge holds
// it, a hyperedge only once it is empty, and every insertion takes a
// fresh slot. The path they form costs k, so HGED(g, path.Apply(g)) ≤ k.
func plantEdits(rng *rand.Rand, g *hypergraph.Hypergraph, k, labels int) []Op {
	type edge struct {
		alive   bool
		members map[int]bool
	}
	nodes := make([]bool, g.NumNodes()) // alive flags by slot
	for v := range nodes {
		nodes[v] = true
	}
	edges := make([]edge, g.NumEdges())
	for e := range edges {
		edges[e] = edge{alive: true, members: make(map[int]bool)}
		for _, v := range g.Edge(hypergraph.EdgeID(e)).Nodes {
			edges[e].members[int(v)] = true
		}
	}
	held := func(v int) bool {
		for _, e := range edges {
			if e.alive && e.members[v] {
				return true
			}
		}
		return false
	}
	label := func() hypergraph.Label { return hypergraph.Label(1 + rng.Intn(labels)) }
	var ops []Op
	for len(ops) < k {
		// A pick that finds no valid target adds nothing; the loop draws
		// again.
		v, e := rng.Intn(len(nodes)), rng.Intn(max(len(edges), 1))
		edgeAlive := e < len(edges) && edges[e].alive
		switch kind := OpKind(rng.Intn(int(OpEdgeRelabel) + 1)); kind {
		case OpNodeInsert:
			ops = append(ops, Op{Kind: kind, Node: len(nodes), Label: label()})
			nodes = append(nodes, true)
		case OpNodeDelete:
			if nodes[v] && !held(v) {
				ops = append(ops, Op{Kind: kind, Node: v})
				nodes[v] = false
			}
		case OpNodeRelabel:
			if nodes[v] {
				ops = append(ops, Op{Kind: kind, Node: v, Label: label()})
			}
		case OpEdgeInsert:
			ops = append(ops, Op{Kind: kind, Edge: len(edges), Label: label()})
			edges = append(edges, edge{alive: true, members: make(map[int]bool)})
		case OpEdgeDelete:
			if edgeAlive && len(edges[e].members) == 0 {
				ops = append(ops, Op{Kind: kind, Edge: e})
				edges[e].alive = false
			}
		case OpEdgeRelabel:
			if edgeAlive {
				ops = append(ops, Op{Kind: kind, Edge: e, Label: label()})
			}
		case OpEdgeReduce:
			if edgeAlive && edges[e].members[v] {
				ops = append(ops, Op{Kind: kind, Edge: e, Node: v})
				delete(edges[e].members, v)
			}
		case OpEdgeExtend:
			if edgeAlive && nodes[v] && !edges[e].members[v] {
				ops = append(ops, Op{Kind: kind, Edge: e, Node: v})
				edges[e].members[v] = true
			}
		}
	}
	return ops
}

// TestPlantedEditsBoundHGED checks the solvers against a known answer
// that does not come from any solver: h is g after k random valid
// Definition-3 operations, applied by Path.Apply, on random g of 5–7
// nodes. HGED(g, h) ≤ k, HGED-BFS and HGED-DFS agree on it exactly,
// HGED-HEU, capped at 100k expansions, is at least it, and every solver's
// path turns g into a hypergraph isomorphic to h.
func TestPlantedEditsBoundHGED(t *testing.T) {
	const labels = 3
	rng := rand.New(rand.NewSource(71))
	solvers := []struct {
		name  string
		solve func(g, h *hypergraph.Hypergraph, opts Options) Result
		opts  Options
	}{{"BFS", BFS, Options{}}, {"DFS", DFS, Options{}}, {"HEU", HEU, Options{MaxExpansions: 100_000}}}
	for trial := 0; trial < 200; trial++ {
		g := hypergraph.New(0)
		for n := 5 + rng.Intn(3); g.NumNodes() < n; {
			g.AddNode(hypergraph.Label(1 + rng.Intn(labels)))
		}
		for m := 1 + rng.Intn(3); g.NumEdges() < m; {
			perm := rng.Perm(g.NumNodes())[:1+rng.Intn(3)]
			nodes := make([]hypergraph.NodeID, len(perm))
			for i, v := range perm {
				nodes[i] = hypergraph.NodeID(v)
			}
			g.AddEdge(hypergraph.Label(1+rng.Intn(labels)), nodes...)
		}
		k := 1 + rng.Intn(5)
		planted := &Path{Ops: plantEdits(rng, g, k, labels)}
		h, err := planted.Apply(g)
		if err != nil {
			t.Fatalf("trial %d: planted path %v does not apply: %v", trial, planted.Ops, err)
		}
		dist := make([]int, len(solvers))
		for i, s := range solvers {
			res := s.solve(g, h, s.opts)
			if s.opts.MaxExpansions == 0 && !res.Exact || res.Path == nil {
				t.Fatalf("trial %d %s: result %+v not exact or without a path", trial, s.name, res)
			}
			got, err := res.Path.Apply(g)
			if err != nil {
				t.Fatalf("trial %d %s: apply: %v", trial, s.name, err)
			}
			if !hypergraph.Isomorphic(got, h) {
				t.Fatalf("trial %d %s: path does not reach h\ng=%v\nh=%v\ngot=%v", trial, s.name, g, h, got)
			}
			dist[i] = res.Distance
		}
		if bfs, dfs, heu := dist[0], dist[1], dist[2]; bfs > k || bfs != dfs || heu < bfs {
			t.Fatalf("trial %d: BFS %d, DFS %d, HEU %d after %d planted edits %v\ng=%v\nh=%v", trial, bfs, dfs, heu, k, planted.Ops, g, h)
		}
	}
}
