// Command appfitlint runs the repo's project-specific static-analysis
// suite (internal/lint) over the named package patterns — ./... by
// default — and exits non-zero on any finding. It is the `make check-lint`
// gate: the compile-time counterpart of the race detector for the repo's
// determinism, locking and error contracts (DESIGN.md §14).
//
//	go run ./cmd/appfitlint ./...
//	go run ./cmd/appfitlint -run maporder,simdet ./internal/sweep
//
// Deliberate contract exceptions are waived in source with a
// `//lint:<analyzer> <reason>` comment on the flagged line or the line
// above; the waiver is the documented escape hatch, so a clean run means
// every exception is visible and justified where it happens.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"appfit/internal/lint"
	"appfit/internal/lint/analysis"
	"appfit/internal/lint/driver"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: the full suite)")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *runFlag != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for name := range want { //lint:maporder usage errors, at most a handful
			fmt.Fprintf(os.Stderr, "appfitlint: unknown analyzer %q\n", name)
		}
		if len(want) > 0 || len(sel) == 0 {
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := driver.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "appfitlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := driver.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "appfitlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "appfitlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
