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
// The rule keys on that convention. Each increment of an expansion counter
// belongs to one scope: the body of its innermost enclosing for or range
// loop, or, outside any loop, the body of its function or closure (where
// DFS does its recursion). A scope that increments a counter but never
// calls a cancellation poll — a method named `cancelled` or
// `ctxCancelled`, or Context.Err directly — is flagged; a poll after the
// loop does not count, since the loop runs to its end before reaching it.
// A long-running solve inside such a loop would be unkillable: HTTP
// clients disconnecting, job cancellation, and server drain all rely on
// the poll reaching every expansion site.
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
			polls := make(map[*ast.BlockStmt]bool)
			var stack []ast.Node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				st, ok := n.(*ast.IncDecStmt)
				if !ok || st.Tok != token.INC || !expansionCounters[counterName(st.X)] {
					return true
				}
				scope := pollScope(stack, fd.Body)
				polled, seen := polls[scope]
				if !seen {
					polled = hasPoll(pass, scope)
					polls[scope] = polled
					if !polled {
						pass.Reportf(st.Pos(), "expansion counter incremented but its loop never polls cancellation: call opts.cancelled(counter) in the loop so Options.Context can stop the solve")
					}
				}
				return true
			})
		}
	}
}

// pollScope returns the body that must poll for an increment whose
// enclosing nodes are stack: the innermost for or range loop's body, else
// the innermost closure's body, else the function's body.
func pollScope(stack []ast.Node, fnBody *ast.BlockStmt) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch x := stack[i].(type) {
		case *ast.ForStmt:
			return x.Body
		case *ast.RangeStmt:
			return x.Body
		case *ast.FuncLit:
			return x.Body
		}
	}
	return fnBody
}

// hasPoll reports whether scope calls a cancellation poll, by name or
// through a module function whose summary carries FactPollsCancel.
func hasPoll(pass *Pass, scope *ast.BlockStmt) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && pollNames[sel.Sel.Name] {
			found = true
		} else if pass.Prog != nil {
			if id, ok := calleeID(pass.Info, call); ok {
				if fn, ok := pass.Prog.Funcs[id]; ok && fn.Facts&FactPollsCancel != 0 {
					found = true
				}
			}
		}
		return !found
	})
	return found
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
