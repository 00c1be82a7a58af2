package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hged/internal/lint"
)

// writePkg materializes one throwaway package for summary-layer tests.
func writePkg(t *testing.T, src string) *lint.Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.LoadDir(dir, "p")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestSummaryRecursionConvergence: mutually recursive functions form one
// SCC and converge to the same fact set — the wall-clock read in one
// member reaches both, and a caller outside the cycle inherits it.
func TestSummaryRecursionConvergence(t *testing.T) {
	pkg := writePkg(t, `package p

import "time"

func ping(n int) int64 {
	if n == 0 {
		return time.Now().UnixNano()
	}
	return pong(n - 1)
}

func pong(n int) int64 {
	if n == 0 {
		return 0
	}
	return ping(n - 1)
}

func caller() int64 { return pong(3) }

func pure(n int) int { return n * 2 }
`)
	prog := lint.BuildProgram([]*lint.Package{pkg})

	for _, name := range []string{"p.ping", "p.pong", "p.caller"} {
		facts, ok := prog.FactsOf(name)
		if !ok {
			t.Fatalf("%s not in call graph", name)
		}
		if facts&lint.FactWallClock == 0 {
			t.Errorf("%s: facts %v, want wallclock", name, facts)
		}
	}
	if facts, _ := prog.FactsOf("p.pure"); facts != 0 {
		t.Errorf("p.pure: facts %v, want none", facts)
	}

	pingSCC, ok1 := prog.SCCOf("p.ping")
	pongSCC, ok2 := prog.SCCOf("p.pong")
	callerSCC, ok3 := prog.SCCOf("p.caller")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("SCC lookup failed")
	}
	if pingSCC != pongSCC {
		t.Errorf("ping and pong are mutually recursive but in SCCs %d and %d", pingSCC, pongSCC)
	}
	if callerSCC == pingSCC {
		t.Errorf("caller is not part of the recursion but shares SCC %d", callerSCC)
	}
}

// TestSummaryBlockingFacts: channel operations, known blocking std calls,
// and select-with-default are classified as documented.
func TestSummaryBlockingFacts(t *testing.T) {
	pkg := writePkg(t, `package p

import "time"

func recv(ch chan int) int { return <-ch }

func indirect(ch chan int) int { return recv(ch) }

func sleepy() { time.Sleep(time.Millisecond) }

func tryRecv(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

func spawned(ch chan int) {
	go func() { <-ch }()
}
`)
	prog := lint.BuildProgram([]*lint.Package{pkg})
	wantBlocks := map[string]bool{
		"p.recv":     true,
		"p.indirect": true,
		"p.sleepy":   true,
		"p.tryRecv":  false, // select with default never blocks
		"p.spawned":  false, // the receive happens on another goroutine
	}
	for name, want := range wantBlocks {
		facts, ok := prog.FactsOf(name)
		if !ok {
			t.Fatalf("%s not in call graph", name)
		}
		if got := facts&lint.FactBlocks != 0; got != want {
			t.Errorf("%s: blocks=%v, want %v (facts %v)", name, got, want, facts)
		}
	}
}

// TestSummaryGoStatementFacts: a go statement's function value and
// arguments are evaluated on the launching goroutine, so their facts count
// toward the launcher; only the spawned call runs elsewhere.
func TestSummaryGoStatementFacts(t *testing.T) {
	pkg := writePkg(t, `package p

import "time"

func sink(int64) {}

func launch() { go sink(time.Now().UnixNano()) }

func recv(ch chan int64) { go sink(<-ch) }

func literal() { go func() { time.Now() }() }
`)
	prog := lint.BuildProgram([]*lint.Package{pkg})
	want := map[string]lint.Facts{
		"p.launch":  lint.FactWallClock,
		"p.recv":    lint.FactBlocks,
		"p.literal": 0, // the literal's body runs on the spawned goroutine
	}
	for name, w := range want {
		facts, ok := prog.FactsOf(name)
		if !ok {
			t.Fatalf("%s not in call graph", name)
		}
		if facts != w {
			t.Errorf("%s: facts %v, want %v", name, facts, w)
		}
	}
}

// loadNondetx loads the two-package cross-propagation fixture.
func loadNondetx(t *testing.T) []*lint.Package {
	t.Helper()
	pkgs, err := lint.LoadDirs([]struct{ Dir, ImportPath string }{
		{filepath.Join("testdata", "src", "nondetx", "inner"), "nondetx/inner"},
		{filepath.Join("testdata", "src", "nondetx", "outer"), "nondetx/outer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestSummaryCrossPackageFacts: FactWallClock propagates from a function
// in one package, through a package boundary, to its caller.
func TestSummaryCrossPackageFacts(t *testing.T) {
	prog := lint.BuildProgram(loadNondetx(t))
	cases := map[string]bool{
		"nondetx/inner.oneDeep": true,
		"nondetx/inner.TwoDeep": true,
		"nondetx/inner.Pure":    false,
		"nondetx/outer.Stamp":   true, // across the package boundary
		"nondetx/outer.Control": false,
	}
	for name, want := range cases {
		facts, ok := prog.FactsOf(name)
		if !ok {
			t.Fatalf("%s not in call graph", name)
		}
		if got := facts&lint.FactWallClock != 0; got != want {
			t.Errorf("%s: wallclock=%v, want %v", name, got, want)
		}
	}
}

// scopedTo clones an analyzer with its package scope replaced, so the
// fixture's outer package is "in scope" and inner is not — the production
// shape (core/search/predict scoped, helpers not).
func scopedTo(a *lint.Analyzer, pkgs ...string) *lint.Analyzer {
	clone := *a
	clone.Packages = pkgs
	return &clone
}

// TestNondetDifferential is the acceptance-criteria proof: a wall-clock
// read two calls deep in another package is invisible to the per-file
// nondet and caught by the interprocedural one, at the call site.
func TestNondetDifferential(t *testing.T) {
	pkgs := loadNondetx(t)

	perFile := lint.Check(pkgs, []*lint.Analyzer{scopedTo(lint.NondetPerFile, "nondetx/outer")})
	if len(perFile) != 0 {
		t.Fatalf("per-file nondet should miss the cross-package wall clock, got:\n%s", diagString(perFile))
	}

	interproc := lint.Check(pkgs, []*lint.Analyzer{scopedTo(lint.Nondet, "nondetx/outer")})
	if len(interproc) != 1 {
		t.Fatalf("interprocedural nondet: got %d diagnostics, want exactly 1:\n%s", len(interproc), diagString(interproc))
	}
	d := interproc[0]
	if filepath.Base(d.Path) != "outer.go" || d.Rule != "nondet" {
		t.Fatalf("finding landed at %s (%s), want outer.go call site", d.Path, d.Rule)
	}
	if !strings.Contains(d.Message, "inner.TwoDeep") || !strings.Contains(d.Message, "time.Now") {
		t.Errorf("message should name the witness chain down to time.Now, got: %s", d.Message)
	}
}

// TestSummaryWitnessChain: the chain rendered into transitive nondet
// messages walks callee links down to the primitive.
func TestSummaryWitnessChain(t *testing.T) {
	pkgs := loadNondetx(t)
	diags := lint.Check(pkgs, []*lint.Analyzer{scopedTo(lint.Nondet, "nondetx/outer")})
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %d", len(diags))
	}
	msg := diags[0].Message
	// TwoDeep → oneDeep → time.Now, in order.
	i1 := strings.Index(msg, "inner.TwoDeep")
	i2 := strings.Index(msg, "inner.oneDeep")
	i3 := strings.Index(msg, "time.Now")
	if i1 < 0 || i2 < i1 || i3 < i2 {
		t.Errorf("witness chain out of order in message: %s", msg)
	}
}

// TestSelect: the -rules subset resolver errors on unknown names and
// preserves known ones.
func TestSelect(t *testing.T) {
	got, err := lint.Select([]string{"nondet", "pinpair"})
	if err != nil || len(got) != 2 {
		t.Fatalf("Select(nondet, pinpair) = %d analyzers, err %v", len(got), err)
	}
	if _, err := lint.Select([]string{"nondet", "nosuchrule"}); err == nil {
		t.Fatal("Select with unknown rule should error")
	}
	if _, err := lint.Select(nil); err == nil {
		t.Fatal("Select with no rules should error")
	}
}

// TestSubsetRunSuppressionStability: a -rules subset run must not flag
// suppressions of the rules it skipped as stale.
func TestSubsetRunSuppressionStability(t *testing.T) {
	pkg, err := lint.LoadDir(filepath.Join("testdata", "src", "pinpair"), "pinpair")
	if err != nil {
		t.Fatal(err)
	}
	// Run only lockhold (which finds nothing here): the pinpair suppression
	// in the fixture must not be reported stale.
	diags := lint.Check([]*lint.Package{pkg}, []*lint.Analyzer{scopedTo(lint.Lockhold)})
	if len(diags) != 0 {
		t.Fatalf("subset run misreported suppressions:\n%s", diagString(diags))
	}
}
