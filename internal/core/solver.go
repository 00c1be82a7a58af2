package core

import (
	"sync"
	"sync/atomic"

	"hged/internal/hypergraph"
)

// Solver is a reusable HGED-BFS handle: the pair model (compiled graphs,
// label dictionaries, EDC scratch) and the search state (slab, priority
// queue, suffix arrays) are retained across solves, so batch callers pay
// the allocation cost of the first solve only. A Solver is not safe for
// concurrent use; use one per goroutine, or the pooled package-level BFS.
type Solver struct {
	p      pair
	search bfsSearch
}

// NewSolver returns a fresh, unpooled Solver. Batch drivers that own their
// worker goroutines (Matrix, search verification) use one per worker.
func NewSolver() *Solver { return new(Solver) }

// BFS runs HGED-BFS on (g, h), reusing the solver's retained storage. The
// result is identical to the package-level BFS: same distances, same paths.
// The returned Result does not alias solver memory and remains valid after
// further solves.
func (sv *Solver) BFS(g, h *hypergraph.Hypergraph, opts Options) Result {
	res, _ := sv.Within(g, h, opts.tau(), opts)
	return res
}

// Within verifies HGED(g, h) ≤ tau, as the (λ,τ)-hyperedge test and search
// verification ask, by one HGED-BFS bounded at tau itself (at tau = 0 only
// f = 0 states are pushed; opts.Threshold is ignored). It reports
// res.Within(tau): a capped incumbent, an upper bound, counts only if ≤ tau.
func (sv *Solver) Within(g, h *hypergraph.Hypergraph, tau int, opts Options) (Result, bool) {
	sv.p.init(g, h, opts.costModel())
	sv.search.init(&sv.p, opts)
	res := sv.search.run(opts, tau)
	return res, res.Within(tau)
}

// EDCInaccurate computes the EDC-INAC upper bound for a complete padded node
// mapping on the solver's retained pair model (see EDCInaccurate).
func (sv *Solver) EDCInaccurate(g, h *hypergraph.Hypergraph, nodeMap []int) int {
	sv.p.init(g, h, UnitCosts())
	return sv.p.edcInaccurate(nodeMap)
}

// solverPool recycles Solvers across package-level BFS calls so concurrent
// batch workloads (the hgedd service, HEP, matrices) hit warm slabs.
var solverPool = sync.Pool{New: func() interface{} {
	solverMisses.Add(1)
	return new(Solver)
}}

var (
	solverAcquires atomic.Int64
	solverMisses   atomic.Int64
)

// AcquireSolver takes a Solver from the pool (allocating one on a pool
// miss). Pair it with ReleaseSolver.
func AcquireSolver() *Solver {
	solverAcquires.Add(1)
	//hgedvet:ignore poolpair ownership transfers to the caller, who must pair this with ReleaseSolver
	return solverPool.Get().(*Solver)
}

// ReleaseSolver returns a Solver to the pool. The caller must not use sv
// afterwards.
func ReleaseSolver(sv *Solver) { solverPool.Put(sv) }

// SolverPoolStats reports how often AcquireSolver was served by a warm
// pooled Solver (hits) versus a fresh allocation (misses). The counters are
// cumulative for the process; the hgedd /metrics endpoint exposes them.
func SolverPoolStats() (hits, misses int64) {
	a, m := solverAcquires.Load(), solverMisses.Load()
	return a - m, m
}
