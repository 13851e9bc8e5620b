// chaos-vet runs the repo's two determinism analyzers, detrange and
// wallclock (internal/analysis), over Go packages: a multichecker in
// the style of golang.org/x/tools/go/analysis/multichecker built on the
// stdlib.
//
// Usage:
//
//	go run ./cmd/chaos-vet ./...                  # whole module
//	go run ./cmd/chaos-vet ./internal/core/...    # one subtree
//	go run ./cmd/chaos-vet -fix ./...             # apply suggested fixes
//
// Diagnostics print as file:line:col: message [analyzer]; the exit
// status is 1 when any diagnostic is reported, 2 on load errors.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"chaos/internal/analysis/chaosvet"
	"chaos/internal/analysis/framework"
	"chaos/internal/cli"
)

func main() {
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chaos-vet [-fix] [-list] [-analyzers a,b] [package pattern]...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	logger := cli.NewLogger("chaos-vet")

	analyzers := chaosvet.All()
	if *list {
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-12s %s\n", a.Name, doc)
		}
		return
	}
	if *only != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				cli.Fatal(logger, "analyzers", fmt.Errorf("unknown analyzer %q (see -list)", name))
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := framework.Load(fset, ".", patterns...)
	if err != nil {
		cli.Fatal(logger, "load", err)
	}
	if len(pkgs) == 0 {
		cli.Fatal(logger, "load", fmt.Errorf("no packages matched %s", strings.Join(patterns, " ")))
	}

	diags, err := framework.Run(pkgs, analyzers)
	if err != nil {
		cli.Fatal(logger, "analysis", err)
	}
	if len(diags) == 0 {
		return
	}

	for _, d := range diags {
		p := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", p.Filename, p.Line, p.Column, d.Message, d.Analyzer)
		for _, sf := range d.SuggestedFixes {
			note := " (apply with -fix)"
			if *fix {
				note = ""
			}
			fmt.Fprintf(os.Stderr, "\tsuggested fix: %s%s\n", sf.Message, note)
		}
	}
	if *fix {
		sources := map[string][]byte{}
		for _, pkg := range pkgs {
			for path, src := range pkg.Sources {
				sources[path] = src
			}
		}
		fixed, err := framework.ApplyFixes(fset, sources, diags)
		if err != nil {
			cli.Fatal(logger, "fix", err)
		}
		for path, content := range fixed {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				cli.Fatal(logger, "fix", err)
			}
			fmt.Fprintf(os.Stderr, "chaos-vet: rewrote %s\n", path)
		}
		if len(fixed) > 0 {
			fmt.Fprintf(os.Stderr, "chaos-vet: fixes applied; run gofmt and re-run chaos-vet\n")
		}
	}
	os.Exit(1)
}
