package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Pinpair flags leaked MVCC generation pins: a call to a Pin method (any
// method named Pin whose result type has an Unpin method — Versioned.Pin,
// GraphEntry.Pin, and future backend wrappers share that shape) whose
// enclosing function does not unpin on every path. A leaked pin keeps the
// pinned generation's ego caches and CSR arenas alive forever: the MVCC
// layer frees an old generation only when its pin count drains to zero.
//
// The check is lexical per function literal:
//
//   - `return x.Pin()` transfers ownership to the caller and is exempt
//     (the registry's GraphEntry.Pin wrapper is exactly this);
//   - a `defer gen.Unpin()` after the acquire (possibly inside a deferred
//     closure) covers all paths;
//   - otherwise every return after the acquire needs a release between the
//     acquire and the return, and at least one release must follow the
//     acquire. A release is a direct Unpin call or a call to a module
//     function whose summary carries FactUnpins (a helper that unpins for
//     the caller counts).
//
// Pins that intentionally outlive the function (stored into a struct whose
// owner releases them) suppress with //hgedvet:ignore pinpair.
var Pinpair = &Analyzer{
	Name: "pinpair",
	Doc:  "flags generation Pin calls without a matching Unpin on every path",
	Run:  runPinpair,
}

func runPinpair(pass *Pass) {
	eachFuncUnit(pass.Files, func(body *ast.BlockStmt) { checkPinUnit(pass, body) })
}

func checkPinUnit(pass *Pass, body *ast.BlockStmt) {
	var (
		pins     []token.Pos
		releases []token.Pos
		returns  []token.Pos
		defers   []*ast.DeferStmt
		transfer = make(map[token.Pos]bool) // pins that are `return x.Pin()`
	)
	walkUnit(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			returns = append(returns, st.Pos())
			for _, res := range st.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && isPinCall(pass.Info, call) {
					transfer[call.Pos()] = true
				}
			}
		case *ast.DeferStmt:
			defers = append(defers, st)
		case *ast.CallExpr:
			if isPinCall(pass.Info, st) {
				pins = append(pins, st.Pos())
			}
			if isPinRelease(pass, st) {
				releases = append(releases, st.Pos())
			}
		}
	})
	if len(pins) == 0 {
		return
	}

	for _, pin := range pins {
		if transfer[pin] {
			continue // ownership moves to the caller
		}
		if pinDeferCovers(pass, defers, pin) {
			continue
		}
		covered := false
		for _, rel := range releases {
			if rel > pin {
				covered = true
				break
			}
		}
		for _, ret := range returns {
			if ret <= pin {
				continue
			}
			ok := false
			for _, rel := range releases {
				if rel > pin && rel < ret {
					ok = true
					break
				}
			}
			if !ok {
				covered = false
			}
		}
		if !covered {
			pass.Reportf(pin, "generation pinned with no matching Unpin on every path: a leaked pin keeps the old generation's memory alive forever; defer gen.Unpin() right after pinning (//hgedvet:ignore pinpair if ownership transfers elsewhere)")
		}
	}
}

// isPinRelease recognizes a direct Unpin call or a call to a module
// function whose summary unpins on the caller's behalf.
func isPinRelease(pass *Pass, call *ast.CallExpr) bool {
	if isUnpinCall(pass.Info, call) {
		return true
	}
	if pass.Prog == nil {
		return false
	}
	id, ok := calleeID(pass.Info, call)
	if !ok {
		return false
	}
	fn, ok := pass.Prog.Funcs[id]
	return ok && fn.Facts&FactUnpins != 0
}

// pinDeferCovers reports whether a defer at or after the pin performs an
// unpin, directly or inside a deferred closure.
func pinDeferCovers(pass *Pass, defers []*ast.DeferStmt, pin token.Pos) bool {
	for _, d := range defers {
		if d.Pos() < pin {
			continue
		}
		found := false
		ast.Inspect(d, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isPinRelease(pass, call) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isPinCall recognizes a method call named Pin whose result is a pointer to
// a type with an Unpin method — the MVCC generation-pinning shape
// (hypergraph.Versioned.Pin, server.GraphEntry.Pin, fixtures).
func isPinCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Pin" {
		return false
	}
	if _, ok := info.Selections[sel]; !ok {
		return false // package-qualified function, not a method
	}
	return hasUnpinMethod(info.TypeOf(call))
}

// hasUnpinMethod reports whether t (or its pointee) has an Unpin method.
func hasUnpinMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "Unpin" {
			return true
		}
	}
	return false
}
