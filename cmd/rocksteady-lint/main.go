// Command rocksteady-lint is the repository's invariant-enforcing static
// analyzer. It machine-checks the ownership, latency, and concurrency
// contracts the Go compiler cannot: pooled wire buffers released exactly
// once on every path, no sleep-polling in the dispatch/migration layers,
// no blocking sends under a mutex, no silently dropped errors on the hot
// path, context-first RPC signatures — and, for the lock-free read/write
// paths, typed atomics only, seqlock mutations only inside stripe write
// sections, no mutation of RCU-published memory, and no obvious
// allocations in //lint:hotpath functions.
//
// Usage:
//
//	go build -o bin/rocksteady-lint ./cmd/rocksteady-lint
//	bin/rocksteady-lint [-list] [packages]
//
// Packages are go list patterns and default to ./... Exit status is 0
// when clean, 1 when diagnostics were reported, 2 on usage or load
// errors. Individual findings are suppressed with an adjacent
// //lint:ignore <analyzer> <reason> comment; a directive that stops
// matching any diagnostic is itself reported, so suppressions cannot go
// stale.
//
// The tool is stdlib-only (go/parser + go/types + go/ast) and needs the
// go command it runs under: one `go list` call resolves the packages, and
// the module's packages are type-checked from source.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

var allAnalyzers = []*Analyzer{
	poolcheckAnalyzer,
	nopollAnalyzer,
	lockholdAnalyzer,
	errdropAnalyzer,
	ctxcheckAnalyzer,
	atomiccheckAnalyzer,
	seqcheckAnalyzer,
	rcucheckAnalyzer,
	hotallocAnalyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rocksteady-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the available analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: rocksteady-lint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range allAnalyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := NewLoader().Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "rocksteady-lint: %v\n", err)
		return 2
	}

	diags := RunAnalyzers(pkgs, allAnalyzers)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "rocksteady-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
