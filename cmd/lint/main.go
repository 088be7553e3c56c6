// Command lint runs the repo's protocol-invariant analyzers (see
// internal/lint) over the given package patterns and exits non-zero on
// any finding. It is a required CI gate:
//
//	go run ./cmd/lint ./...
//
// Suppressions use `//lint:allow <analyzer> <reason>` on (or directly
// above) the offending line, or in a function's doc comment to cover the
// whole function; the reason is mandatory, and stale suppressions are
// themselves reported.
package main

import (
	"fmt"
	"os"

	"amcast/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prog, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := prog.AddConsumers(wd); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(prog, lint.All(), lint.Options{ReportUnusedAllows: true})
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
