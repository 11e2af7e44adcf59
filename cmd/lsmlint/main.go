// Command lsmlint is the repository's static analyzer. It enforces the
// coding disciplines the engine's correctness and experiments depend on:
// device I/O, live tree state, merge cascades and WAL frames confined to
// their owning layers, seeded randomness only, no dropped errors, package
// layering, and the path-sensitive protocols the engine's concurrency and
// durability arguments rest on (writer-lock discipline and shard lock
// order, view and span obligations, sentinel error flow), plus goroutine
// shutdown and bounded retry.
//
// Usage:
//
//	go run ./cmd/lsmlint ./...
//	go run ./cmd/lsmlint -rules lock-discipline,shard-lock-order ./...
//	go run ./cmd/lsmlint -list
//
// Exits 1 when findings exist, 2 on analysis failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"lsmssd/internal/lint"
	"lsmssd/internal/lint/rules"
)

func main() {
	ruleList := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	listRules := flag.Bool("list", false, "list the registered rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lsmlint [-rules r1,r2] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, r := range rules.All() {
			fmt.Printf("%-20s %s\n", r.Name, r.Doc)
		}
		return
	}

	selected, err := rules.Select(*ruleList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(".", patterns, lint.DefaultConfig(), selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lsmlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
