package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hged/internal/lint"
)

// wantRe matches golden expectation comments in fixture sources:
//
//	for k := range m { // want detrange "map iteration order"
var wantRe = regexp.MustCompile(`// want (\w+) "([^"]+)"`)

type expectation struct {
	file string
	line int
	rule string
	re   *regexp.Regexp
}

// readExpectations scans every fixture file for // want comments.
func readExpectations(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[2], err)
				}
				want = append(want, expectation{file: path, line: i + 1, rule: m[1], re: re})
			}
		}
	}
	return want
}

// unscoped returns the named default analyzer with package scoping removed,
// so it runs on fixture packages regardless of their import path.
func unscoped(t *testing.T, rule string) *lint.Analyzer {
	t.Helper()
	orig := lint.ByName(rule)
	if orig == nil {
		t.Fatalf("no analyzer named %q", rule)
	}
	a := *orig
	a.Packages = nil
	return &a
}

func checkFixture(t *testing.T, dir, rule string) []lint.Diagnostic {
	t.Helper()
	pkg, err := lint.LoadDir(dir, rule)
	if err != nil {
		t.Fatal(err)
	}
	return lint.Check([]*lint.Package{pkg}, []*lint.Analyzer{unscoped(t, rule)})
}

// TestAnalyzerFixtures asserts, for each analyzer, the exact diagnostic set
// over its testdata fixture: every // want comment matches exactly one
// diagnostic and no diagnostic goes unexpected — including that the
// fixtures' suppression comments silence their sites.
func TestAnalyzerFixtures(t *testing.T) {
	for _, rule := range []string{
		"detrange", "nondet", "ctxpoll", "mutpath", "pinpair", "lockhold",
	} {
		t.Run(rule, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", rule)
			diags := checkFixture(t, dir, rule)
			want := readExpectations(t, dir)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no // want expectations", dir)
			}

			matched := make([]bool, len(diags))
			for _, w := range want {
				found := false
				for i, d := range diags {
					if matched[i] || d.Line != w.line || d.Rule != w.rule || filepath.Base(d.Path) != filepath.Base(w.file) {
						continue
					}
					if !w.re.MatchString(d.Message) {
						continue
					}
					matched[i] = true
					found = true
					break
				}
				if !found {
					t.Errorf("%s:%d: want %s %q, got no matching diagnostic", w.file, w.line, w.rule, w.re)
				}
			}
			for i, d := range diags {
				if !matched[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

// TestSuppressionRemoval rebuilds a fixture with one suppression comment
// stripped and asserts the suppressed finding resurfaces — the property the
// CI gate relies on (removing any //hgedvet:ignore must fail the build).
func TestSuppressionRemoval(t *testing.T) {
	cases := []struct {
		rule   string
		marker string // the suppression line to strip
	}{
		{"detrange", "//hgedvet:ignore detrange commutative sum"},
		{"nondet", "//hgedvet:ignore nondet debug-only timing"},
		{"ctxpoll", "//hgedvet:ignore ctxpoll bounded to 64 iterations"},
		{"mutpath", "//hgedvet:ignore mutpath graph is still private"},
		{"pinpair", "//hgedvet:ignore pinpair pin ownership moves into the holder"},
		{"lockhold", "//hgedvet:ignore lockhold bounded handoff"},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			src := filepath.Join("testdata", "src", tc.rule)
			baseline := checkFixture(t, src, tc.rule)

			dir := t.TempDir()
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			stripped := false
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for _, line := range strings.Split(string(data), "\n") {
					if idx := strings.Index(line, tc.marker); idx >= 0 {
						stripped = true
						line = strings.TrimRight(line[:idx], " \t")
					}
					out = append(out, line)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte(strings.Join(out, "\n")), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if !stripped {
				t.Fatalf("marker %q not found in fixture %s", tc.marker, src)
			}

			diags := checkFixture(t, dir, tc.rule)
			if len(diags) != len(baseline)+1 {
				t.Fatalf("after stripping suppression: got %d diagnostics, want %d:\n%s",
					len(diags), len(baseline)+1, diagString(diags))
			}
			extra := 0
			for _, d := range diags {
				if d.Rule == tc.rule {
					extra++
				}
			}
			base := 0
			for _, d := range baseline {
				if d.Rule == tc.rule {
					base++
				}
			}
			if extra != base+1 {
				t.Fatalf("stripped suppression did not resurface a %s finding:\n%s", tc.rule, diagString(diags))
			}
		})
	}
}

// TestSuppressionProblems asserts the driver polices the suppressions
// themselves: missing reasons, unknown rules, and stale ignores are all
// findings.
func TestSuppressionProblems(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

func noReason(m map[string]int) int {
	total := 0
	//hgedvet:ignore detrange
	for _, v := range m {
		total += v
	}
	return total
}

func unknownRule(m map[string]int) int {
	total := 0
	//hgedvet:ignore nosuchrule because reasons
	for _, v := range m {
		total += v
	}
	return total
}

func stale() int {
	//hgedvet:ignore detrange nothing here ranges a map anymore
	return 42
}
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.LoadDir(dir, "bad")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Check([]*lint.Package{pkg}, []*lint.Analyzer{unscoped(t, "detrange")})

	wantSubstrings := []string{
		"malformed suppression",   // no reason given
		"map iteration order",     // the malformed ignore must NOT suppress
		"unknown rule nosuchrule", // bad rule name
		"map iteration order",     // the unknown-rule ignore must NOT suppress
		"suppresses nothing",      // stale ignore
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wantSubstrings), diagString(diags))
	}
	for _, sub := range []string{"malformed suppression", "unknown rule nosuchrule", "suppresses nothing"} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic mentions %q:\n%s", sub, diagString(diags))
		}
	}
}

// TestRepoClean runs the full production configuration — every default
// analyzer, with its package scoping — over the whole module and requires
// zero findings. This is the same gate CI runs via `go run ./cmd/hgedvet`;
// keeping it in the test suite means `go test ./...` catches contract
// violations even where CI configuration drifts.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := lint.Load([]string{"hged/..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Check(pkgs, lint.DefaultAnalyzers())
	if len(diags) != 0 {
		t.Fatalf("hgedvet found %d issue(s) in the tree:\n%s", len(diags), diagString(diags))
	}
}

func diagString(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
