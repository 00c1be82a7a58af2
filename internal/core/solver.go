package core

import (
	"context"
	"sync"
	"sync/atomic"

	"hged/internal/hypergraph"
)

// Algorithm selects one of the paper's three HGED solvers. Every solve,
// whichever its solver, compiles both graphs into a pooled solver's pair
// and runs the chosen search on that compiled pair.
type Algorithm int

const (
	// AlgBFS is HGED-BFS (Algorithm 3) with all pruning strategies.
	AlgBFS Algorithm = iota
	// AlgDFS is HGED-DFS (Algorithms 1+2): exact, without re-ranking,
	// upper bounds or lower bounds.
	AlgDFS
	// AlgHEU is HGED-HEU (Algorithm 1): a heuristic upper bound.
	AlgHEU
)

// solver is a reusable HGED handle: the pair model (compiled graphs, label
// dictionaries, EDC scratch) and the HGED-BFS search state (slab, priority
// queue, suffix arrays) are retained across solves, so a warm solver pays
// no allocation for them. A solver is not safe for concurrent use: every
// solve takes one from the pool, and none leaves this package.
type solver struct {
	p      pair
	search bfsSearch
}

// within compiles g and h into this solver and runs alg on them.
func (sv *solver) within(alg Algorithm, g, h *hypergraph.Hypergraph, tau int, opts Options) (Result, bool) {
	sv.p.init(g, h, opts.costModel())
	return sv.solve(alg, tau, opts)
}

// solve runs alg on the pair this solver holds compiled and reports
// res.Within(tau). HGED-BFS is bounded at tau itself at every tau, 0
// included, and ignores opts.Threshold; HGED-DFS and HGED-HEU run with tau
// as their threshold, which at 0 is their unbounded search.
func (sv *solver) solve(alg Algorithm, tau int, opts Options) (Result, bool) {
	var res Result
	switch alg {
	case AlgDFS:
		opts.Threshold = tau
		res = dfs(&sv.p, opts)
	case AlgHEU:
		opts.Threshold = tau
		res = heu(&sv.p, opts)
	default:
		return sv.run(tau, opts)
	}
	return res, res.Within(tau)
}

// run searches the pair this solver holds compiled by HGED-BFS, bounded at
// tau.
func (sv *solver) run(tau int, opts Options) (Result, bool) {
	sv.search.init(&sv.p, opts)
	res := sv.search.run(opts, tau)
	return res, res.Within(tau)
}

// solverPool recycles solvers across solves so batch workloads (the hgedd
// service, HEP, search, matrices) hit warm slabs. Its per-P slot hands a
// goroutine that solves in a loop the same warm solver each time.
var solverPool = sync.Pool{New: func() interface{} {
	solverMisses.Add(1)
	return new(solver)
}}

var (
	solverAcquires atomic.Int64
	solverMisses   atomic.Int64
)

// Within verifies HGED(g, h) ≤ tau, as the (λ,τ)-hyperedge test and search
// verification ask, by one HGED-BFS on a pooled solver bounded at tau
// itself (at tau = 0 only f = 0 states are pushed; opts.Threshold is
// ignored). It reports res.Within(tau): a capped incumbent, an upper
// bound, counts only if ≤ tau. The returned Result does not alias solver
// memory.
func Within(g, h *hypergraph.Hypergraph, tau int, opts Options) (Result, bool) {
	return AlgBFS.Within(g, h, tau, opts)
}

// Within verifies HGED(g, h) ≤ tau with alg on a pooled solver and reports
// res.Within(tau); see solver.solve for how each solver treats tau. The
// returned Result does not alias solver memory.
func (alg Algorithm) Within(g, h *hypergraph.Hypergraph, tau int, opts Options) (Result, bool) {
	solverAcquires.Add(1)
	sv := solverPool.Get().(*solver)
	defer solverPool.Put(sv)
	return sv.within(alg, g, h, tau, opts)
}

// WithinInduced is alg.Within(host.InducedSubgraph(a),
// host.InducedSubgraph(b), tau, opts), Result for Result, without building
// either subgraph: both node sets are compiled straight from host's frozen
// CSR into the pooled solver. a and b must ascend without duplicates. It
// is HEP's σ miss path, whose context egos are such sets.
func (alg Algorithm) WithinInduced(host *hypergraph.Hypergraph, a, b []hypergraph.NodeID, tau int, opts Options) (Result, bool) {
	mustAscend(a)
	mustAscend(b)
	solverAcquires.Add(1)
	sv := solverPool.Get().(*solver)
	defer solverPool.Put(sv)
	c := host.Freeze()
	// A nil set would select the whole host.
	sv.p.compile(c, nonNil(a), c, nonNil(b), opts.costModel())
	return sv.solve(alg, tau, opts)
}

func mustAscend(set []hypergraph.NodeID) {
	for i := 1; i < len(set); i++ {
		if set[i] <= set[i-1] {
			panic("core: induced node set does not strictly ascend")
		}
	}
}

func nonNil(set []hypergraph.NodeID) []hypergraph.NodeID {
	if set == nil {
		return []hypergraph.NodeID{}
	}
	return set
}

// PoolStats reports how often a solve was served by a warm pooled
// solver (hits) versus a fresh allocation (misses). The counters are
// cumulative for the process; the hgedd /metrics endpoint exposes them.
func PoolStats() (hits, misses int64) {
	a, m := solverAcquires.Load(), solverMisses.Load()
	return a - m, m
}

// ForEach runs task(i) for every i in [0, n): in index order on the
// calling goroutine when workers ≤ 1, otherwise on min(workers, n)
// goroutines that take indices from a shared counter. ctx is polled before
// each task; once it is cancelled no further task starts, and ForEach
// returns the number of tasks that completed with ctx.Err() itself
// (unwrapped). Tasks must write only state indexed by their own i, so a
// merge over those slots is deterministic regardless of scheduling.
func ForEach(ctx context.Context, n, workers int, task func(i int)) (done int, err error) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return i, err
			}
			task(i)
		}
		return n, nil
	}
	var (
		next     atomic.Int64
		finished atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				task(i)
				finished.Add(1)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return int(finished.Load()), err
	}
	return n, nil
}
