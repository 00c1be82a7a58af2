package lint

import (
	"go/ast"
	"go/token"
)

// Ctxpoll enforces the cancellation contract on the solver core: every
// state-expansion loop must poll Options.Context. The core's convention
// is that expansion work increments a counter named `expanded` (BFS, the
// node-mapping enumeration and its Algorithm-2 leaf) or `spent`, and
// consults opts.cancelled(counter) — the throttled poll that checks the
// context every cancelCheckEvery increments.
//
// The rule keys on that convention: a function (including its nested
// closures, where DFS does its recursion) that increments an expansion
// counter but never calls a cancellation poll — a method named `cancelled`
// or `ctxCancelled`, or Context.Err directly — is flagged. A long-running
// solve inside such a loop would be unkillable: HTTP clients disconnecting,
// job cancellation, and server drain all rely on the poll reaching every
// expansion site.
//
// Since the interprocedural layer, the poll may also live in a helper: a
// call to any module function whose summary carries FactPollsCancel counts,
// so hoisting the throttled check into a shared routine does not trip the
// rule.
var Ctxpoll = &Analyzer{
	Name:     "ctxpoll",
	Doc:      "flags expansion-counting solver loops that never poll Options.Context",
	Packages: []string{"hged/internal/core"},
	Run:      runCtxpoll,
}

// expansionCounters are the names the solver core uses for its per-run
// expansion budgets; incrementing one marks the surrounding function as a
// state-expansion loop.
var expansionCounters = map[string]bool{"expanded": true, "spent": true}

// pollNames are the calls accepted as a cancellation poll.
var pollNames = map[string]bool{"cancelled": true, "ctxCancelled": true, "Err": true}

func runCtxpoll(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var incs []token.Pos
			hasPoll := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.IncDecStmt:
					if st.Tok == token.INC && expansionCounters[counterName(st.X)] {
						incs = append(incs, st.Pos())
					}
				case *ast.CallExpr:
					if sel, ok := st.Fun.(*ast.SelectorExpr); ok && pollNames[sel.Sel.Name] {
						hasPoll = true
					}
					if !hasPoll && pass.Prog != nil {
						if id, ok := calleeID(pass.Info, st); ok {
							if fn, ok := pass.Prog.Funcs[id]; ok && fn.Facts&FactPollsCancel != 0 {
								hasPoll = true
							}
						}
					}
				}
				return true
			})
			if len(incs) > 0 && !hasPoll {
				pass.Reportf(incs[0], "expansion counter incremented but the function never polls cancellation: call opts.cancelled(counter) in the loop so Options.Context can stop the solve")
			}
		}
	}
}

// counterName extracts the counter identifier from the increment operand:
// a bare identifier, a field selector (s.expanded), or a pointer
// dereference (*steps).
func counterName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.StarExpr:
		return counterName(x.X)
	case *ast.ParenExpr:
		return counterName(x.X)
	}
	return ""
}
