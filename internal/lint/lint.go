// Package lint implements hgedvet, the project's static-analysis pass.
//
// The HGED codebase promises contracts that ordinary tests only catch when
// a test happens to exercise the offending path:
//
//   - determinism: parallel search output is byte-identical to sequential,
//     edit paths and DOT renderings are reproducible run to run;
//   - cancellation: every state-expansion loop polls Options.Context;
//   - MVCC discipline: graph writes go through a Batch, every generation
//     pin is released, and no server mutex is held across a blocking wait.
//
// hgedvet makes those contracts compile-time-checkable. The framework is
// stdlib-only (go/parser + go/types, with package resolution and export
// data delegated to the go command), matching the module's zero-dependency
// ethos. Each Analyzer inspects one type-checked package and reports
// Diagnostics; the driver applies per-analyzer package scoping and
// //hgedvet:ignore suppression comments, and flags suppressions that are
// malformed, name an unknown rule, or no longer suppress anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Path    string `json:"path"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Rule, d.Message)
}

// Pass carries one type-checked package through an analyzer run. Prog is
// the whole-run interprocedural view (call graph + fact summaries over
// every package in the Check call); analyzers consult it for transitive
// checks but report only at positions inside the current package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Prog  *Program

	anlz   *Analyzer
	rule   string
	report func(Diagnostic)
}

// analyzedElsewhere reports whether the running analyzer will itself visit
// the package with the given import path during this run — used to avoid
// reporting a transitive finding at a call site when the callee's own
// package produces the direct finding.
func (p *Pass) analyzedElsewhere(importPath string) bool {
	if p.Prog == nil || p.anlz == nil {
		return false
	}
	if !p.anlz.appliesTo(importPath) {
		return false
	}
	for _, pkg := range p.Prog.Pkgs {
		if pkg.ImportPath == importPath {
			return true
		}
	}
	return false
}

// Reportf records a finding at pos under the running analyzer's rule name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Path:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named rule. Packages lists the import paths the rule is
// scoped to; empty means every analyzed package.
type Analyzer struct {
	Name     string
	Doc      string
	Packages []string
	Run      func(*Pass)
}

func (a *Analyzer) appliesTo(importPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == importPath {
			return true
		}
	}
	return false
}

// DefaultAnalyzers returns the project rule set with its production package
// scoping (see DESIGN.md "Static analysis" for the contract each enforces).
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Detrange, Nondet, Ctxpoll, Mutpath, Pinpair, Lockhold,
	}
}

// eachFuncUnit calls check with the body of every function declaration and
// function literal in files; a worker goroutine's closure is its own unit.
func eachFuncUnit(files []*ast.File, check func(*ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				check(body)
			}
			return true
		})
	}
}

// walkUnit visits the nodes of one function body without descending into
// nested function literals (each literal is checked as its own unit).
func walkUnit(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// Select resolves rule names to default analyzers, erroring on any name
// that is not a known rule — the cmd/hgedvet -rules flag.
func Select(names []string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range names {
		a := ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown rule %q (known: %s)", name, ruleNames())
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rules selected")
	}
	return out, nil
}

// ruleNames lists the default rule names for error messages.
func ruleNames() string {
	var names []string
	for _, a := range DefaultAnalyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ByName returns the default analyzer with the given rule name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range DefaultAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// knownRules is the rule-name universe for suppression validation.
func knownRules() map[string]bool {
	m := make(map[string]bool)
	for _, a := range DefaultAnalyzers() {
		m[a.Name] = true
	}
	return m
}

// Check runs every analyzer (subject to its package scope) over every
// package, applies suppressions, and returns the surviving diagnostics
// sorted by position. Suppression problems — malformed comments, unknown
// rule names, suppressions that suppress nothing — are reported under the
// pseudo-rule "hgedvet" so stale ignores cannot linger silently.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := knownRules()
	for _, a := range analyzers {
		known[a.Name] = true
	}
	prog := BuildProgram(pkgs)
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, checkPackage(prog, pkg, analyzers, known)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

func checkPackage(prog *Program, pkg *Package, analyzers []*Analyzer, known map[string]bool) []Diagnostic {
	var raw []Diagnostic
	ran := make(map[string]bool)
	for _, a := range analyzers {
		if !a.appliesTo(pkg.ImportPath) {
			continue
		}
		ran[a.Name] = true
		pass := &Pass{
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
			Prog:  prog,
			anlz:  a,
			rule:  a.Name,
			report: func(d Diagnostic) {
				raw = append(raw, d)
			},
		}
		a.Run(pass)
	}

	sup := collectIgnores(pkg)
	var out []Diagnostic
	for _, d := range raw {
		if ig := sup.match(d); ig != nil {
			ig.used = true
			continue
		}
		out = append(out, d)
	}
	out = append(out, sup.problems(known, ran)...)
	return out
}
