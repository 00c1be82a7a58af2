// Package baseline implements the comparison methods of the paper's
// evaluation: the classic topological similarity indices (Section II and
// III-A), the JS predictor (Jaccard similarity driving the HEP framework),
// and LGR, a from-scratch reimplementation of Yoon et al.'s logistic-
// regression hyperedge classifier over n-order expansion features [20].
package baseline

import (
	"math"

	"hged/internal/hypergraph"
)

// neighborSet returns NEI(v) without v itself, as a set. The classic
// indices are defined over proper neighborhoods.
func neighborSet(g *hypergraph.Hypergraph, v hypergraph.NodeID) map[hypergraph.NodeID]struct{} {
	out := make(map[hypergraph.NodeID]struct{})
	for _, u := range g.Neighbors(v) {
		if u != v {
			out[u] = struct{}{}
		}
	}
	return out
}

func interCount(a, b map[hypergraph.NodeID]struct{}) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for v := range a {
		if _, ok := b[v]; ok {
			n++
		}
	}
	return n
}

// CommonNeighbors returns |Γ(u) ∩ Γ(v)|.
func CommonNeighbors(g *hypergraph.Hypergraph, u, v hypergraph.NodeID) float64 {
	return float64(interCount(neighborSet(g, u), neighborSet(g, v)))
}

// Jaccard returns |Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)| (0 when both are empty).
func Jaccard(g *hypergraph.Hypergraph, u, v hypergraph.NodeID) float64 {
	a, b := neighborSet(g, u), neighborSet(g, v)
	inter := interCount(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// AdamicAdar returns Σ_{w ∈ Γ(u)∩Γ(v)} 1/log|Γ(w)| [7]. Neighbors of degree
// ≤ 1 contribute 1/log 2.
func AdamicAdar(g *hypergraph.Hypergraph, u, v hypergraph.NodeID) float64 {
	a, b := neighborSet(g, u), neighborSet(g, v)
	if len(b) < len(a) {
		a, b = b, a
	}
	sum := 0.0
	for w := range a {
		if _, ok := b[w]; !ok {
			continue
		}
		deg := len(neighborSet(g, w))
		if deg < 2 {
			deg = 2
		}
		sum += 1 / math.Log(float64(deg))
	}
	return sum
}

// ResourceAllocation returns Σ_{w ∈ Γ(u)∩Γ(v)} 1/|Γ(w)| [8].
func ResourceAllocation(g *hypergraph.Hypergraph, u, v hypergraph.NodeID) float64 {
	a, b := neighborSet(g, u), neighborSet(g, v)
	if len(b) < len(a) {
		a, b = b, a
	}
	sum := 0.0
	for w := range a {
		if _, ok := b[w]; !ok {
			continue
		}
		if deg := len(neighborSet(g, w)); deg > 0 {
			sum += 1 / float64(deg)
		}
	}
	return sum
}
