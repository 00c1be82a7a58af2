package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detrange flags `range` over a map in determinism-critical packages. Map
// iteration order is randomized per run, so any computation whose output
// depends on visit order — building a slice, emitting text, choosing a
// "first" element — silently breaks the byte-identical-output contracts
// (parallel search merges, edit-path serialization, DOT rendering).
//
// Two idioms are exempt without suppression:
//
//   - collect-and-sort: the loop body only appends map elements to a
//     slice, and a later statement in the same block passes that slice to
//     a sort call (sort.Slice(out, ...), sort.Ints(keys), sortMatches(out), ...);
//   - anything justified with //hgedvet:ignore detrange <reason> — for
//     genuinely order-insensitive folds (counting, summing, copying into
//     another keyed map).
var Detrange = &Analyzer{
	Name: "detrange",
	Doc:  "flags map iteration in determinism-critical packages unless the elements are collected and sorted",
	Packages: []string{
		"hged/internal/core",
		"hged/internal/search",
		"hged/internal/predict",
		"hged/internal/server",
		"hged/internal/viz",
	},
	Run: runDetrange,
}

func runDetrange(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			for i, st := range list {
				rs := asRangeStmt(st)
				if rs == nil {
					continue
				}
				t := pass.Info.TypeOf(rs.X)
				if t == nil {
					continue
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					continue
				}
				if collectedAndSorted(pass, rs, list[i+1:]) {
					continue
				}
				pass.Reportf(rs.Pos(), "map iteration order is nondeterministic: collect the elements and sort them in this block, or add //hgedvet:ignore detrange <why order cannot matter>")
			}
			return true
		})
	}
}

// asRangeStmt unwraps labels and returns st as a range statement, or nil.
func asRangeStmt(st ast.Stmt) *ast.RangeStmt {
	for {
		if l, ok := st.(*ast.LabeledStmt); ok {
			st = l.Stmt
			continue
		}
		rs, _ := st.(*ast.RangeStmt)
		return rs
	}
}

// collectedAndSorted reports whether rs merely collects map elements into
// slices (every body statement is `x = append(x, ...)`) that a following
// statement in the same block sorts.
func collectedAndSorted(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) bool {
	targets := make(map[types.Object]bool)
	for _, st := range rs.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		first, ok := call.Args[0].(*ast.Ident)
		if !ok || first.Name != lhs.Name {
			return false
		}
		obj := pass.Info.Uses[lhs]
		if obj == nil {
			obj = pass.Info.Defs[lhs]
		}
		if obj == nil {
			return false
		}
		targets[obj] = true
	}
	if len(targets) == 0 {
		return false
	}
	for _, st := range rest {
		if sortsAny(pass, st, targets) {
			return true
		}
	}
	return false
}

// sortsAny reports whether st is a call with "sort" in its name that takes
// one of the collected slices as an argument.
func sortsAny(pass *Pass, st ast.Stmt, targets map[types.Object]bool) bool {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = exprName(fn.X) + "." + fn.Sel.Name
	default:
		return false
	}
	if !strings.Contains(strings.ToLower(name), "sort") {
		return false
	}
	for _, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok && targets[pass.Info.Uses[id]] {
			return true
		}
	}
	return false
}

func exprName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
