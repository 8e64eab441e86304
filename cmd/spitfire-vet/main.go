// Command spitfire-vet runs the repo's stdlib-only invariant analyzers
// (DESIGN.md §6d) over one or more package patterns:
//
//	go run ./cmd/spitfire-vet ./...
//	go run ./cmd/spitfire-vet -checks latchorder,obsguard ./internal/core
//
// It prints findings as "file:line: [check-id] message" and exits 1 when any
// finding survives //vet:allow filtering, so it can gate CI. -v surfaces
// loader warnings (partial type information makes the checks quieter, not
// wrong, so warnings are hidden by default).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/spitfire-db/spitfire/internal/vet"
)

func main() {
	var (
		dir     = flag.String("dir", ".", "module root to analyze")
		checks  = flag.String("checks", "", "comma-separated subset of "+strings.Join(vet.AllChecks, ",")+" (default all)")
		tests   = flag.Bool("tests", false, "also analyze _test.go files")
		verbose = flag.Bool("v", false, "print loader warnings")
	)
	flag.Parse()

	cfg := vet.Config{
		Dir:          *dir,
		Patterns:     flag.Args(),
		IncludeTests: *tests,
	}
	if *checks != "" {
		for _, c := range strings.Split(*checks, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			if !known(c) {
				fmt.Fprintf(os.Stderr, "spitfire-vet: unknown check %q (have %s)\n", c, strings.Join(vet.AllChecks, ", "))
				os.Exit(2)
			}
			cfg.Checks = append(cfg.Checks, c)
		}
	}
	if *verbose {
		cfg.Warn = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	findings, err := vet.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spitfire-vet: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "spitfire-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func known(id string) bool {
	for _, c := range vet.AllChecks {
		if c == id {
			return true
		}
	}
	return false
}
