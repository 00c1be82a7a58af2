package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Lockhold forbids may-block operations while holding a registry or entry
// mutex in the server layer. Those mutexes (Registry.mu, GraphEntry.mu,
// Metrics.mu, JobManager.mu, Job.mu) sit on every request path;
// blocking under one — a channel operation, an MVCC Versioned.Begin that
// waits for a prior writer, a network call — turns an isolated slow
// operation into a server-wide stall, and mixing lock orders with blocking
// waits is how the deadlocks start.
//
// Detection: a lock region opens at `x.mu.Lock()` / `x.mu.RLock()` where
// the mutex is a field of a struct defined in the analyzed package, and
// closes at the first matching Unlock/RUnlock on the same receiver
// expression (or at function end when the unlock is deferred). Within the
// region — lexically, per function unit, not descending into nested
// function literals — the rule flags blocking channel operations (sends
// and receives outside a select with default, selects without default,
// ranges over channels) and calls to functions whose transitive summary
// carries FactBlocks. The region model is lexical like pinpair's: an
// unlock inside one branch closes the region early, which under-
// approximates but never false-positives on straight-line code.
//
// Bounded handoffs that cannot stall (buffered channel with a guaranteed
// drain) suppress with //hgedvet:ignore lockhold.
var Lockhold = &Analyzer{
	Name:     "lockhold",
	Doc:      "forbids may-block calls and channel ops while holding a server registry/entry mutex",
	Packages: []string{"hged/internal/server"},
	Run:      runLockhold,
}

// lockRegion is one held-mutex span within a function unit.
type lockRegion struct {
	key        string // receiver expression, e.g. "e.mu"
	start, end token.Pos
}

func runLockhold(pass *Pass) {
	eachFuncUnit(pass.Files, func(body *ast.BlockStmt) { checkLockUnit(pass, body) })
}

func checkLockUnit(pass *Pass, body *ast.BlockStmt) {
	type lockOp struct {
		key      string
		pos      token.Pos
		deferred bool
	}
	var locks, unlocks []lockOp
	deferredCalls := make(map[*ast.CallExpr]bool)
	walkUnit(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.DeferStmt:
			deferredCalls[st.Call] = true
			if key, kind, ok := mutexOp(pass, st.Call); ok && kind == "unlock" {
				unlocks = append(unlocks, lockOp{key: key, pos: st.Pos(), deferred: true})
			}
		case *ast.CallExpr:
			if deferredCalls[st] {
				return
			}
			if key, kind, ok := mutexOp(pass, st); ok {
				op := lockOp{key: key, pos: st.Pos()}
				if kind == "lock" {
					locks = append(locks, op)
				} else {
					unlocks = append(unlocks, op)
				}
			}
		}
	})
	if len(locks) == 0 {
		return
	}

	var regions []lockRegion
	for _, l := range locks {
		end := body.End()
		for _, u := range unlocks {
			if u.deferred || u.key != l.key || u.pos <= l.pos {
				continue
			}
			if u.pos < end {
				end = u.pos
			}
		}
		regions = append(regions, lockRegion{key: l.key, start: l.pos, end: end})
	}

	for _, op := range blockingChanOps(pkgOf(pass), body, false) {
		for _, r := range regions {
			if op.pos > r.start && op.pos < r.end {
				pass.Reportf(op.pos, "%s while %s is held can stall every request path: move the operation outside the critical section or make it non-blocking (select with default)", op.kind, r.key)
				break
			}
		}
	}

	walkUnit(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || pass.Prog == nil {
			return
		}
		if _, _, isMutex := mutexOp(pass, call); isMutex {
			return
		}
		facts, id, ok := pass.Prog.calleeFacts(pass.Info, call)
		if !ok || facts&FactBlocks == 0 {
			return
		}
		for _, r := range regions {
			if call.Pos() > r.start && call.Pos() < r.end {
				pass.Reportf(call.Pos(), "call to %s may block while %s is held: it can wait indefinitely, stalling every path that needs %s; restructure so the wait happens outside the critical section", displayName(id), r.key, r.key)
				break
			}
		}
	})
}

// mutexOp recognizes Lock/RLock/Unlock/RUnlock calls on a sync.Mutex or
// sync.RWMutex reached through a field of a struct type defined in the
// analyzed package, returning the receiver expression as the region key.
func mutexOp(pass *Pass, call *ast.CallExpr) (key, kind string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = "lock"
	case "Unlock", "RUnlock":
		kind = "unlock"
	default:
		return "", "", false
	}
	if !isSyncMutex(pass.Info.TypeOf(sel.X)) {
		return "", "", false
	}
	// The mutex must hang off a struct declared in this package: x.mu where
	// x's type is a local named struct (possibly through more selectors).
	owner, isOwnerSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isOwnerSel {
		return "", "", false
	}
	t := pass.Info.TypeOf(owner.X)
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pass.Pkg.Path() {
		return "", "", false
	}
	return exprKey(sel.X), kind, true
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// exprKey renders a selector chain ("s.search.mu") for region matching;
// distinct spellings of the same mutex are treated as distinct, which only
// shortens regions (missing an unlock extends to function end).
func exprKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprKey(x.X)
	}
	return fmt.Sprintf("<%T>", e)
}

// pkgOf rebuilds the *Package view blockingChanOps needs from a pass.
func pkgOf(pass *Pass) *Package {
	return &Package{
		ImportPath: pass.Pkg.Path(),
		Fset:       pass.Fset,
		Files:      pass.Files,
		Types:      pass.Pkg,
		Info:       pass.Info,
	}
}
