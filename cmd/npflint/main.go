// Command npflint runs the repo's determinism-contract analyzers (see
// internal/analysis) over Go packages and exits non-zero if any contract
// is violated.
//
// Usage:
//
//	go run ./cmd/npflint [-json] [packages]
//
// With no package patterns it checks ./... . -json emits machine-readable
// diagnostics on stdout:
//
//	{"diagnostics":[{"analyzer":"detflow","pos":"file.go:12:7","message":"..."}]}
//
// Exit status: 0 on a clean tree, 1 when diagnostics were reported, 2 on
// loading/internal errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"npf/internal/analysis/driver"
	"npf/internal/analysis/npflint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: npflint [-json] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range npflint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, firstLine(a.Doc))
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, _ := os.Getwd()
	pkgs, err := driver.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npflint: %v\n", err)
		os.Exit(2)
	}
	diags, err := driver.Run(pkgs, npflint.Analyzers(), cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npflint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		doc := struct {
			Diagnostics []driver.Diagnostic `json:"diagnostics"`
		}{Diagnostics: diags}
		if doc.Diagnostics == nil {
			doc.Diagnostics = []driver.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "npflint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
