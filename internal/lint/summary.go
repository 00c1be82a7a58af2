package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the interprocedural layer under hgedvet: an intra-module
// call graph with per-function fact summaries, computed bottom-up over
// strongly connected components. Per-file analyzers see only one function
// at a time; the summaries let them ask "does anything this call reaches
// read the wall clock / block / unpin a generation / poll cancellation?"
// without re-walking callee bodies.
//
// The fact lattice is a small powerset — facts only accumulate, so the
// SCC fixpoint is a plain union:
//
//	WallClock   reads time.Now/time.Since or the global math/rand source
//	Blocks      may block: channel ops, time.Sleep, WaitGroup/Cond waits,
//	            network and subprocess I/O, MVCC writer serialization
//	            (Versioned.Begin), singleflight waits (channel recv)
//	Unpins      unpins an MVCC generation
//	PollsCancel polls a cancellation context (cancelled/ctxCancelled/Err)
//
// Functions are keyed by types.Func.FullName(), which is stable between a
// package type-checked from source and the same package consumed as export
// data — that is what lets facts propagate across package boundaries.
// Resolution is static: calls through function values, interface methods,
// and the call a `go` statement spawns do not contribute to a caller's
// summary. The spawned call's function value and arguments do: Go
// evaluates them on the launching goroutine.

// Facts is the per-function summary bitmask.
type Facts uint16

const (
	// FactWallClock marks functions that (transitively) read the wall clock
	// or consume the process-global math/rand source.
	FactWallClock Facts = 1 << iota
	// FactBlocks marks functions that may block the calling goroutine.
	FactBlocks
	// FactUnpins marks functions that unpin an MVCC generation.
	FactUnpins
	// FactPollsCancel marks functions that poll a cancellation context.
	FactPollsCancel
)

// String renders the fact set for diagnostics and tests.
func (f Facts) String() string {
	var parts []string
	for _, e := range [...]struct {
		bit  Facts
		name string
	}{
		{FactWallClock, "wallclock"},
		{FactBlocks, "blocks"},
		{FactUnpins, "unpins"},
		{FactPollsCancel, "pollscancel"},
	} {
		if f&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// externalFacts seeds summaries at the module boundary: callees we have no
// source for but whose behavior the contracts care about. Everything else
// outside the module contributes no facts (a static under-approximation).
var externalFacts = map[string]Facts{
	"time.Now":   FactWallClock,
	"time.Since": FactWallClock,

	"time.Sleep":                    FactBlocks,
	"(*sync.WaitGroup).Wait":        FactBlocks,
	"(*sync.Cond).Wait":             FactBlocks,
	"(*os/exec.Cmd).Run":            FactBlocks,
	"(*os/exec.Cmd).Wait":           FactBlocks,
	"(*os/exec.Cmd).Output":         FactBlocks,
	"(*os/exec.Cmd).CombinedOutput": FactBlocks,
	"net/http.Get":                  FactBlocks,
	"net/http.Post":                 FactBlocks,
	"net/http.PostForm":             FactBlocks,
	"net/http.Head":                 FactBlocks,
	"(*net/http.Client).Do":         FactBlocks,
	"(*net/http.Client).Get":        FactBlocks,
	"(*net/http.Client).Post":       FactBlocks,
	"(*net/http.Client).Head":       FactBlocks,
	"net.Dial":                      FactBlocks,
	"net.DialTimeout":               FactBlocks,
}

// moduleFacts force-classifies module functions whose blocking behavior is
// not visible in their own syntax: Versioned.Begin waits on the writer
// mutex until the previous batch commits or aborts — an unbounded wait the
// channel-op scan cannot see.
var moduleFacts = map[string]Facts{
	"(*hged/internal/hypergraph.Versioned).Begin": FactBlocks,
}

// FuncInfo is one module function in the call graph.
type FuncInfo struct {
	ID   string // types.Func.FullName()
	Pkg  *Package
	Decl *ast.FuncDecl

	Calls []string // resolved callee IDs, deduplicated
	Local Facts    // facts from this function's own body
	Facts Facts    // transitive closure after SCC propagation
	SCC   int      // component index (callee components numbered first)

	// wallVia names the callee whose summary contributed FactWallClock
	// ("" when the fact is local) — one witness edge, enough to rebuild a
	// chain for diagnostics.
	wallVia string
	// wallWhat names the primitive behind a local FactWallClock
	// ("time.Now", "rand.Intn", ...).
	wallWhat string
}

// Program is the whole-run view handed to every analyzer pass: all loaded
// packages and the call graph with computed summaries.
type Program struct {
	Pkgs  []*Package
	Funcs map[string]*FuncInfo
}

// FuncCount returns the number of module functions in the call graph.
func (p *Program) FuncCount() int { return len(p.Funcs) }

// FactsOf returns the transitive fact summary of the function with the
// given FullName id.
func (p *Program) FactsOf(id string) (Facts, bool) {
	fn, ok := p.Funcs[id]
	if !ok {
		return 0, false
	}
	return fn.Facts, true
}

// SCCOf returns the strongly-connected-component index of a function.
func (p *Program) SCCOf(id string) (int, bool) {
	fn, ok := p.Funcs[id]
	if !ok {
		return 0, false
	}
	return fn.SCC, true
}

// calleeFacts resolves a call expression against the program: the callee's
// transitive summary when it is a module function, the external seed facts
// otherwise. ok is false when the callee cannot be resolved statically.
func (p *Program) calleeFacts(info *types.Info, call *ast.CallExpr) (Facts, string, bool) {
	id, ok := calleeID(info, call)
	if !ok {
		return 0, "", false
	}
	if fn, ok := p.Funcs[id]; ok {
		return fn.Facts, id, true
	}
	return externalCallFacts(info, call, id), id, true
}

// BuildProgram parses every function of the loaded packages into the call
// graph and computes transitive fact summaries bottom-up over SCCs.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{Pkgs: pkgs, Funcs: make(map[string]*FuncInfo)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{ID: obj.FullName(), Pkg: pkg, Decl: fd}
				scanLocal(pkg, fi)
				p.Funcs[fi.ID] = fi
			}
		}
	}
	p.propagate()
	return p
}

// scanLocal computes a function's own facts and call edges. The call a `go`
// statement spawns is excluded — its effects happen on another goroutine —
// while synchronously invoked closures count toward the enclosing function.
func scanLocal(pkg *Package, fi *FuncInfo) {
	seen := make(map[string]bool)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			inspectLaunch(st, visit)
			return false
		case *ast.CallExpr:
			id, ok := calleeID(pkg.Info, st)
			if ok {
				if !seen[id] {
					seen[id] = true
					fi.Calls = append(fi.Calls, id)
				}
				ext := externalCallFacts(pkg.Info, st, id)
				fi.Local |= ext
				if ext&FactWallClock != 0 && fi.wallWhat == "" {
					fi.wallWhat = displayName(id)
				}
			}
			if isUnpinCall(pkg.Info, st) {
				fi.Local |= FactUnpins
			}
			if isPollCall(st) {
				fi.Local |= FactPollsCancel
			}
		}
		return true
	}
	ast.Inspect(fi.Decl.Body, visit)
	if len(blockingChanOps(pkg, fi.Decl.Body, true)) > 0 {
		fi.Local |= FactBlocks
	}
	if forced, ok := moduleFacts[fi.ID]; ok {
		fi.Local |= forced
	}
}

// inspectLaunch walks what a `go` statement evaluates on the launching
// goroutine — the function value, unless it is a literal, and the
// arguments — and skips the spawned call itself.
func inspectLaunch(g *ast.GoStmt, visit func(ast.Node) bool) {
	if _, lit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); !lit {
		ast.Inspect(g.Call.Fun, visit)
	}
	for _, arg := range g.Call.Args {
		ast.Inspect(arg, visit)
	}
}

// propagate computes transitive facts bottom-up: Tarjan's algorithm emits
// strongly connected components in reverse topological order (a component
// is finished only after everything it reaches), so one pass over the
// emission order suffices — facts only accumulate, making the in-component
// fixpoint a plain union.
func (p *Program) propagate() {
	t := &tarjan{
		prog:  p,
		index: make(map[string]int),
		low:   make(map[string]int),
		on:    make(map[string]bool),
	}
	for id := range p.Funcs {
		if _, visited := t.index[id]; !visited {
			t.strongconnect(id)
		}
	}
	for ci, comp := range t.comps {
		facts := Facts(0)
		for _, id := range comp {
			fn := p.Funcs[id]
			facts |= fn.Local
			for _, callee := range fn.Calls {
				cf, ok := p.Funcs[callee]
				if !ok {
					continue // external: already folded into Local
				}
				facts |= cf.Facts | cf.Local
				if (cf.Facts|cf.Local)&FactWallClock != 0 && fn.wallVia == "" && fn.Local&FactWallClock == 0 {
					fn.wallVia = callee
				}
			}
		}
		for _, id := range comp {
			p.Funcs[id].Facts = facts
			p.Funcs[id].SCC = ci
		}
	}
	// Mutual recursion inside a component: a member may have gained
	// FactWallClock from the component union without a witness edge; point
	// it at any member that carries one.
	for _, comp := range t.comps {
		if len(comp) < 2 {
			continue
		}
		var carrier string
		for _, id := range comp {
			fn := p.Funcs[id]
			if fn.Local&FactWallClock != 0 || fn.wallVia != "" {
				carrier = id
				break
			}
		}
		if carrier == "" {
			continue
		}
		for _, id := range comp {
			fn := p.Funcs[id]
			if fn.Facts&FactWallClock != 0 && fn.Local&FactWallClock == 0 && fn.wallVia == "" && id != carrier {
				fn.wallVia = carrier
			}
		}
	}
}

// tarjan is the classic SCC state machine over Program.Funcs.
type tarjan struct {
	prog    *Program
	counter int
	index   map[string]int
	low     map[string]int
	on      map[string]bool
	stack   []string
	comps   [][]string
}

func (t *tarjan) strongconnect(v string) {
	t.index[v] = t.counter
	t.low[v] = t.counter
	t.counter++
	t.stack = append(t.stack, v)
	t.on[v] = true

	for _, w := range t.prog.Funcs[v].Calls {
		if _, ok := t.prog.Funcs[w]; !ok {
			continue
		}
		if _, visited := t.index[w]; !visited {
			t.strongconnect(w)
			if t.low[w] < t.low[v] {
				t.low[v] = t.low[w]
			}
		} else if t.on[w] && t.index[w] < t.low[v] {
			t.low[v] = t.index[w]
		}
	}

	if t.low[v] == t.index[v] {
		var comp []string
		for {
			w := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.on[w] = false
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		t.comps = append(t.comps, comp)
	}
}

// wallClockChain rebuilds the witness path from a function with
// FactWallClock down to the primitive it reaches, for diagnostics:
// "a → b → time.Now". Capped so a pathological chain stays readable.
func (p *Program) wallClockChain(id string) string {
	var parts []string
	for hops := 0; hops < 6; hops++ {
		fn, ok := p.Funcs[id]
		if !ok {
			break
		}
		parts = append(parts, displayName(id))
		if fn.Local&FactWallClock != 0 {
			if fn.wallWhat != "" {
				parts = append(parts, fn.wallWhat)
			}
			break
		}
		if fn.wallVia == "" {
			break
		}
		id = fn.wallVia
	}
	return strings.Join(parts, " → ")
}

// ---------------------------------------------------------------- helpers

// calleeID statically resolves a call expression to the callee's FullName.
func calleeID(info *types.Info, call *ast.CallExpr) (string, bool) {
	if f := calleeFunc(info, call); f != nil {
		return f.FullName(), true
	}
	return "", false
}

// externalCallFacts returns the seed facts of a resolved call: the
// externalFacts table plus the math/rand package-level rule (any function
// except the explicit source constructors consumes the global source).
func externalCallFacts(info *types.Info, call *ast.CallExpr, id string) Facts {
	if f, ok := externalFacts[id]; ok {
		return f
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return 0
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !allowedRand[fn.Name()] {
			return FactWallClock
		}
	}
	return 0
}

// calleeFunc returns the *types.Func a call resolves to, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// displayName shortens a FullName for messages: the package path keeps only
// its last element ("hged/internal/hypergraph" → "hypergraph").
func displayName(id string) string {
	shorten := func(path string) string {
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	if strings.HasPrefix(id, "(") {
		// "(*pkg/path.Type).Method"
		end := strings.Index(id, ")")
		if end < 0 {
			return id
		}
		recv := id[1:end]
		star := strings.HasPrefix(recv, "*")
		recv = strings.TrimPrefix(recv, "*")
		if dot := strings.LastIndex(recv, "."); dot >= 0 {
			recv = shorten(recv[:dot]) + recv[dot:]
		}
		if star {
			recv = "*" + recv
		}
		return "(" + recv + ")" + id[end+1:]
	}
	if dot := strings.LastIndex(id, "."); dot >= 0 {
		return shorten(id[:dot]) + id[dot:]
	}
	return id
}

// isUnpinCall recognizes a no-argument method call named Unpin.
func isUnpinCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Unpin" || len(call.Args) != 0 {
		return false
	}
	_, isMethod := info.Selections[sel]
	return isMethod
}

// isPollCall recognizes the cancellation-poll shapes ctxpoll accepts.
func isPollCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && pollNames[sel.Sel.Name]
}

// chanOp is one potentially blocking channel operation.
type chanOp struct {
	pos  token.Pos
	kind string // "channel send", "channel receive", "select", "channel range"
}

// blockingChanOps collects the channel operations in body that can block:
// sends and receives outside a select with a default case, selects without
// a default, and ranges over a channel. With includeClosures, synchronously
// invoked function literals count toward the enclosing body; the call a
// `go` statement spawns never does, though its arguments do. With
// includeClosures false, every nested function literal is skipped (each is
// analyzed as its own unit).
func blockingChanOps(pkg *Package, body ast.Node, includeClosures bool) []chanOp {
	var ops []chanOp
	exempt := make(map[ast.Node]bool) // comm statements of select-with-default
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			inspectLaunch(st, visit)
			return false
		case *ast.FuncLit:
			if !includeClosures {
				return false
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					exempt[cc.Comm] = true
				}
			}
			if !hasDefault {
				ops = append(ops, chanOp{st.Pos(), "select"})
			}
		case *ast.SendStmt:
			if !exempt[st] {
				ops = append(ops, chanOp{st.Pos(), "channel send"})
			}
		case *ast.UnaryExpr:
			if st.Op == token.ARROW && !exemptRecv(exempt, st, body) {
				ops = append(ops, chanOp{st.Pos(), "channel receive"})
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(st.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					ops = append(ops, chanOp{st.Pos(), "channel range"})
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return ops
}

// exemptRecv reports whether a receive expression is the comm operation of
// a select that has a default case (directly, or as the RHS of the comm's
// assignment).
func exemptRecv(exempt map[ast.Node]bool, recv *ast.UnaryExpr, body ast.Node) bool {
	found := false
	for comm := range exempt {
		ast.Inspect(comm, func(n ast.Node) bool {
			if n == recv {
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
