package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hged/internal/hypergraph"
)

// rebuiltScratch is the scratch state of one slab state, rebuilt from the
// root by walking its parent chain: the reference the incremental restore
// is checked against.
type rebuiltScratch struct {
	usedNodes, usedEdges     []bool
	nodeMap                  []int // valid on the assigned source nodes
	tgtNodeCnt, tgtEdgeCnt   []int32
	tgtNodeSize, tgtEdgeSize int
	tgtEdgeCards             []int // ascending
}

func rebuildScratch(s *bfsSearch, st int32) rebuiltScratch {
	p := s.p
	r := rebuiltScratch{
		usedNodes:    make([]bool, s.N),
		usedEdges:    make([]bool, s.M),
		nodeMap:      make([]int, s.N),
		tgtNodeCnt:   make([]int32, p.numNodeLab),
		tgtEdgeCnt:   make([]int32, p.numEdgeLab),
		tgtNodeSize:  p.tgt.n,
		tgtEdgeSize:  p.tgt.m,
		tgtEdgeCards: slices.Clone(p.tgt.cards),
	}
	for _, l := range p.tgtNodeLab {
		r.tgtNodeCnt[l]++
	}
	for _, l := range p.tgtEdgeLab {
		r.tgtEdgeCnt[l]++
	}
	sort.Ints(r.tgtEdgeCards)
	for cur := st; s.slab[cur].parent != noParent; cur = s.slab[cur].parent {
		lvl := int(s.slab[cur].level) - 1
		j := int(s.slab[cur].choice)
		if lvl < s.N {
			r.usedNodes[j] = true
			r.nodeMap[s.nodeOrder[lvl]] = j
			if j < p.tgt.n {
				r.tgtNodeCnt[p.tgtNodeLab[j]]--
				r.tgtNodeSize--
			}
			continue
		}
		r.usedEdges[j] = true
		if j < p.tgt.m {
			r.tgtEdgeCnt[p.tgtEdgeLab[j]]--
			r.tgtEdgeSize--
			i := sort.SearchInts(r.tgtEdgeCards, p.tgt.cards[j])
			r.tgtEdgeCards = slices.Delete(r.tgtEdgeCards, i, i+1)
		}
	}
	return r
}

// referenceF prices the child of the restored state st that maps source
// entity lvl to target slot j, from the rebuilt scratch r: the exact cost
// by edgeCost over the node map, the cardinality bound by sortedL1 on a
// copy of the target remainder without j's cardinality.
func referenceF(s *bfsSearch, r rebuiltScratch, st int32, lvl, j int) (g, f int) {
	p := s.p
	g = int(s.slab[st].g)
	lb := 0
	if lvl < s.N {
		g += p.nodeCost(s.nodeOrder[lvl], j)
		if s.useLB {
			suffix := s.srcNodeCntAt(lvl + 1)
			sizeA, size, inter := s.srcNodeSize[lvl+1], r.tgtNodeSize, interSize(suffix, r.tgtNodeCnt)
			if j < p.tgt.n {
				if cb := r.tgtNodeCnt[p.tgtNodeLab[j]]; cb >= 1 && cb <= suffix[p.tgtNodeLab[j]] {
					inter--
				}
				size--
			}
			lb = weightedPsi(maxInt(sizeA, size)-inter, sizeA-size, p.w.Node, p.w.minNodeMismatch())
			edgePsi := maxInt(s.srcEdgeSize[0], r.tgtEdgeSize) - interSize(s.srcEdgeCntAt(0), r.tgtEdgeCnt)
			lb += weightedPsi(edgePsi, s.srcEdgeSize[0]-r.tgtEdgeSize, p.w.Edge, p.w.minEdgeMismatch()) +
				sortedL1(s.srcEdgeCards[0], r.tgtEdgeCards)*p.w.Incidence
		}
		return g, g + lb
	}
	elvl := lvl - s.N
	g += p.edgeCost(s.edgeOrder[elvl], j, r.nodeMap)
	if s.useLB {
		suffix := s.srcEdgeCntAt(elvl + 1)
		sizeA, size, inter := s.srcEdgeSize[elvl+1], r.tgtEdgeSize, interSize(suffix, r.tgtEdgeCnt)
		cards := slices.Clone(r.tgtEdgeCards)
		if j < p.tgt.m {
			if cb := r.tgtEdgeCnt[p.tgtEdgeLab[j]]; cb >= 1 && cb <= suffix[p.tgtEdgeLab[j]] {
				inter--
			}
			size--
			i := sort.SearchInts(cards, p.tgt.cards[j])
			cards = slices.Delete(cards, i, i+1)
		}
		lb = weightedPsi(maxInt(sizeA, size)-inter, sizeA-size, p.w.Edge, p.w.minEdgeMismatch()) +
			sortedL1(s.srcEdgeCards[elvl+1], cards)*p.w.Incidence
	}
	return g, g + lb
}

// wideEgoPair returns a pair of 70-node graphs that differ in one
// hyperedge, so a search reaches edge levels with a target node bitset of
// two words.
func wideEgoPair() (*hypergraph.Hypergraph, *hypergraph.Hypergraph) {
	rng := rand.New(rand.NewSource(3))
	var edges [][]hypergraph.NodeID
	for e := 0; e < 6; e++ {
		var nodes []hypergraph.NodeID
		for _, v := range rng.Perm(70)[:8+e] {
			nodes = append(nodes, hypergraph.NodeID(v))
		}
		edges = append(edges, nodes)
	}
	build := func(drop int) *hypergraph.Hypergraph {
		g := hypergraph.New(0)
		for i := 0; i < 70; i++ {
			g.AddNode(hypergraph.Label(1 + i%3))
		}
		for e, nodes := range edges {
			if e == 5 {
				nodes = nodes[drop:]
			}
			g.AddEdge(hypergraph.Label(1+e%2), nodes...)
		}
		return g
	}
	return build(0), build(1)
}

// TestBFSIncrementalStateMatchesRebuild drives HGED-BFS's pop loop by hand
// on random pairs, with every child admitted, and checks at every pop that
// the incrementally restored scratch state equals a rebuild from the root
// (used slots, node-map prefix, target label counts and sizes, sorted
// target cardinalities), and that every child's g and f equal the
// reference pricing by edgeCost and sortedL1. Pops run past goals, so
// restore also jumps between distant branches.
func TestBFSIncrementalStateMatchesRebuild(t *testing.T) {
	weighted := &CostModel{Node: 2, Edge: 3, Incidence: 2, NodeRelabel: 3, EdgeRelabel: 1}
	rng := rand.New(rand.NewSource(7))
	var pairs [][2]*hypergraph.Hypergraph
	for i := 0; i < 120; i++ {
		pairs = append(pairs, [2]*hypergraph.Hypergraph{randomHypergraph(rng, 7, 6, 3), randomHypergraph(rng, 7, 6, 3)})
	}
	wg, wh := wideEgoPair()
	pairs = append(pairs, [2]*hypergraph.Hypergraph{wg, wh}, [2]*hypergraph.Hypergraph{wh, wg})

	const popsPerSolve = 400
	var pops, edgePops, widePops, children int
	for i, pr := range pairs {
		for _, opts := range []Options{{}, {Costs: weighted}, {DisableRerank: true}, {DisableLowerBound: true}} {
			var sv solver
			sv.p.init(pr[0], pr[1], opts.costModel())
			s := &sv.search
			s.init(&sv.p, opts)
			s.pushState(state{parent: noParent}, 0)
			total := s.N + s.M
			for n := 0; n < popsPerSolve && len(s.heap) > 0; n++ {
				st := s.popState().st
				lvl := int(s.slab[st].level)
				if lvl == total {
					continue
				}
				s.restore(st)
				pops++
				r := rebuildScratch(s, st)
				if !slices.Equal(s.usedNodes, r.usedNodes) || !slices.Equal(s.usedEdges, r.usedEdges) {
					t.Fatalf("pair %d %+v pop %d: used slots %v %v, rebuilt %v %v", i, opts, n, s.usedNodes, s.usedEdges, r.usedNodes, r.usedEdges)
				}
				for k := 0; k < min(lvl, s.N); k++ {
					if v := s.nodeOrder[k]; s.nodeMapBuf[v] != r.nodeMap[v] {
						t.Fatalf("pair %d %+v pop %d: source node %d maps to %d, rebuilt %d", i, opts, n, v, s.nodeMapBuf[v], r.nodeMap[v])
					}
				}
				if !slices.Equal(s.tgtNodeCnt, r.tgtNodeCnt) || s.tgtNodeSize != r.tgtNodeSize ||
					!slices.Equal(s.tgtEdgeCnt, r.tgtEdgeCnt) || s.tgtEdgeSize != r.tgtEdgeSize ||
					!slices.Equal(s.tgtEdgeCards, r.tgtEdgeCards) {
					t.Fatalf("pair %d %+v pop %d: target remainder %v/%d %v/%d %v, rebuilt %v/%d %v/%d %v", i, opts, n,
						s.tgtNodeCnt, s.tgtNodeSize, s.tgtEdgeCnt, s.tgtEdgeSize, s.tgtEdgeCards,
						r.tgtNodeCnt, r.tgtNodeSize, r.tgtEdgeCnt, r.tgtEdgeSize, r.tgtEdgeCards)
				}

				first := int32(len(s.slab))
				if lvl < s.N {
					s.expandNodeLevel(st, lvl, unbounded)
				} else {
					s.expandEdgeLevel(st, lvl, unbounded)
					edgePops++
					if sv.p.tgt.bitWords > 1 {
						widePops++
					}
				}
				pushed := make(map[int32]int)
				for _, e := range s.heap {
					if e.st >= first {
						pushed[e.st] = int(e.key >> 32)
					}
				}
				for c := first; c < int32(len(s.slab)); c++ {
					j := int(s.slab[c].choice)
					wantG, wantF := referenceF(s, r, st, lvl, j)
					if int(s.slab[c].g) != wantG || pushed[c] != wantF || int(s.slab[c].level) != lvl+1 {
						t.Fatalf("pair %d %+v pop %d: child %d→%d at level %d priced g %d f %d, reference g %d f %d",
							i, opts, n, lvl, j, s.slab[c].level, s.slab[c].g, pushed[c], wantG, wantF)
					}
					children++
				}
			}
		}
	}
	if edgePops < 1000 || widePops == 0 {
		t.Fatalf("%d pops, %d at edge levels, %d with a two-word target bitset: the draws miss what is checked", pops, edgePops, widePops)
	}
	t.Logf("%d pops (%d at edge levels, %d with two-word bitsets), %d children priced", pops, edgePops, widePops, children)
}
