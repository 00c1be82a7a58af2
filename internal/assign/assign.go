// Package assign implements the Hungarian algorithm (Kuhn–Munkres) for the
// minimum-cost assignment problem.
//
// Given a node mapping f between two hypergraphs, the optimal mapping of
// hyperedges is exactly an assignment problem: the cost of pairing hyperedge
// E with E' is its label mismatch plus |f(E) Δ E'|. Algorithm 2 of the paper
// enumerates all m! hyperedge permutations; this solver replaces that
// enumeration with an O(m³) exact computation. Both are benchmarked against
// each other in the repository's ablation experiments.
package assign

import "math"

// Inf is a cost large enough to forbid an assignment without overflowing
// additions.
const Inf = math.MaxInt32

// Solve computes a minimum-cost perfect assignment for the square cost
// matrix, returning the column assigned to each row and the total cost.
// It panics if the matrix is not square. An empty matrix yields (nil, 0).
//
// The implementation is the shortest-augmenting-path formulation of the
// Hungarian algorithm with row/column potentials, O(n³) time.
func Solve(cost [][]int64) (rowToCol []int, total int64) {
	n := len(cost)
	if n == 0 {
		return nil, 0
	}
	for _, row := range cost {
		if len(row) != n {
			panic("assign: cost matrix is not square")
		}
	}
	// Potentials and matching use 1-based internal indexing; index 0 is a
	// virtual root.
	const inf = int64(math.MaxInt64) / 4
	u := make([]int64, n+1)
	v := make([]int64, n+1)
	p := make([]int, n+1) // p[j] = row matched to column j (0 = free)
	way := make([]int, n+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]int64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			var delta int64 = inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowToCol = make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] != 0 {
			rowToCol[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += cost[i][rowToCol[i]]
	}
	return rowToCol, total
}
