package lint

import (
	"go/ast"
	"go/types"
)

// Nondet forbids ambient sources of nondeterminism inside solver, search,
// and prediction code: wall-clock reads (time.Now / time.Since) and the
// process-global math/rand source (any package-level function — rand.Intn,
// rand.Shuffle, rand.Perm, ... — in math/rand or math/rand/v2).
//
// The check is interprocedural: a direct scan flags uses in the package
// itself, and a summary-driven pass flags calls into module functions
// whose transitive fact set includes FactWallClock — a time.Now two calls
// deep in an unscoped helper package is caught at the call site, with the
// witness chain in the message. Call sites whose callee lives in a package
// this same run analyzes directly are skipped: the finding surfaces once,
// at the callee.
//
// Randomness is still available, but it must flow through an explicitly
// seeded source (rand.New(rand.NewSource(opts.Seed))), the way Strategy 2's
// sampled upper bound does: that keeps every solve a pure function of its
// inputs, which the service's σ-cache, the bench snapshots, and the
// byte-identical parallel-search contract all rely on.
var Nondet = &Analyzer{
	Name: "nondet",
	Doc:  "forbids time.Now and the global math/rand source, directly or transitively, in solver/search/predict code",
	Packages: []string{
		"hged/internal/core",
		"hged/internal/search",
		"hged/internal/predict",
	},
	Run: runNondet,
}

// NondetPerFile is the pre-interprocedural variant of Nondet — the direct
// syntactic scan only, with no summary propagation. It is not part of
// DefaultAnalyzers; it exists so tests can prove the differential: a
// wall-clock read hidden behind a cross-package call that this variant
// misses and Nondet catches.
var NondetPerFile = &Analyzer{
	Name:     "nondet",
	Doc:      "per-file nondet variant kept for differential testing",
	Packages: Nondet.Packages,
	Run:      runNondetLocal,
}

// allowedRand are the math/rand names that construct explicit sources
// rather than consuming the global one.
var allowedRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"NewPCG":    true,
}

func runNondet(pass *Pass) {
	runNondetLocal(pass)
	runNondetTransitive(pass)
}

// runNondetTransitive flags calls whose resolved callee transitively
// reaches the wall clock or the global rand source, per the call graph's
// fact summaries. Only callees outside this run's directly analyzed scope
// are reported here, so each root cause surfaces exactly once.
func runNondetTransitive(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := calleeID(pass.Info, call)
			if !ok {
				return true
			}
			fn, ok := pass.Prog.Funcs[id]
			if !ok || fn.Facts&FactWallClock == 0 {
				return true
			}
			if fn.Pkg.ImportPath == pass.Pkg.Path() {
				// Same package: the defining function is flagged directly
				// (or at its own offending call site).
				return true
			}
			if pass.analyzedElsewhere(fn.Pkg.ImportPath) {
				return true
			}
			pass.Reportf(call.Pos(), "call to %s transitively reads the wall clock or global rand (%s): solver results must be pure functions of their inputs", displayName(id), pass.Prog.wallClockChain(id))
			return true
		})
	}
}

func runNondetLocal(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch path := pkgName.Imported().Path(); path {
			case "time":
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					pass.Reportf(sel.Pos(), "time.%s reads the wall clock: solver results must be pure functions of their inputs; thread timestamps in from the caller", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[sel.Sel.Name] {
					pass.Reportf(sel.Pos(), "rand.%s uses the process-global random source: derive randomness from an explicitly seeded rand.New(rand.NewSource(seed)) so solves stay reproducible", sel.Sel.Name)
				}
			}
			return true
		})
	}
}
