// Command hgedvet runs the project's static-analysis pass: six analyzers
// over an interprocedural call-graph/fact-summary layer that make the
// determinism, cancellation, and MVCC concurrency contracts
// of the HGED service compile-time-checkable (see internal/lint and the
// "Static analysis" section of DESIGN.md).
//
// Usage:
//
//	hgedvet [-json] [-rules a,b,c] [packages]
//
// Packages default to ./... and accept the go command's pattern syntax.
// -rules runs a named subset of the analyzers (unknown names are an
// error), so CI can stage new rules and fixture self-checks can target
// one rule; suppressions of skipped rules are not judged stale in a
// subset run.
// Exit status is 0 when the tree is clean, 1 when any analyzer reports a
// finding, and 2 when packages fail to load or type-check.
//
// Findings are suppressed per site with a justified comment:
//
//	//hgedvet:ignore <rule> <why the contract holds here>
//
// on the flagged line or the line above it. Suppressions that are
// malformed, name an unknown rule, or no longer suppress anything are
// themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hged/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hgedvet [-json] [-rules a,b,c] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *rules != "" {
		var names []string
		for _, name := range strings.Split(*rules, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		var err error
		analyzers, err = lint.Select(names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hgedvet:", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgedvet:", err)
		os.Exit(2)
	}
	diags := lint.Check(pkgs, analyzers)

	// Report paths relative to the working directory, like go vet.
	if wd, err := os.Getwd(); err == nil {
		for i := range diags {
			if rel, err := filepath.Rel(wd, diags[i].Path); err == nil {
				diags[i].Path = rel
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "hgedvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
