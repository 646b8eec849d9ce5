// Command detlint is the determinism and concurrency linter: a
// multichecker running the internal/analysis suite over module
// packages. The determinism family (mapiterorder, pooldiscipline,
// seedpurity, atomicmix, orderedreduce — rules D1–D5) machine-checks
// the contract that keeps parallel sweeps, Pareto explorations and
// streaming scenario runs bit-for-bit identical to their serial
// counterparts. The perf/concurrency family
// (hotpathalloc, goroleak, lockorder, ctxflow — rules P1 and C1–C3)
// keeps //perf:hot-annotated hot paths allocation-free and goroutine,
// lock, and context use cancellable and deadlock-free.
//
// Usage:
//
//	detlint ./...                 # lint the whole module
//	detlint ./internal/sweep      # one package
//	detlint -only hotpathalloc ./...   # hot-path allocation audit (make lint-hot)
//	detlint -list                 # print the suite
//	detlint -json ./...           # machine-readable findings
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error.
//
// Findings are suppressed per line with a justified annotation:
//
//	//lint:allow <analyzer> -- <why this is safe>
//
// Unjustified or stale allows are findings themselves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mcmnpu/internal/analysis"
	"mcmnpu/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json output row.
type jsonFinding struct {
	Path     string `json:"path"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run is the testable entry point: parse args, write to the given
// streams, return the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzer suite and exit")
	only := fs.String("only", "", "comma-separated analyzers to run (default: all)")
	skip := fs.String("skip", "", "comma-separated analyzers to skip")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	verbose := fs.Bool("v", false, "report per-package suppression counts")
	dir := fs.String("C", ".", "module directory to lint from")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(analyzers, *only, *skip)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var findings []jsonFinding
	suppressed := 0
	for _, pkg := range pkgs {
		res, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		suppressed += res.Suppressed
		if *verbose && res.Suppressed > 0 {
			fmt.Fprintf(stderr, "# %s: %d finding(s) suppressed by //lint:allow\n", pkg.Path, res.Suppressed)
		}
		for _, d := range res.Diagnostics {
			pos := pkg.Fset.Position(d.Pos)
			if *jsonOut {
				findings = append(findings, jsonFinding{
					Path: pos.Filename, Line: pos.Line, Column: pos.Column,
					Analyzer: d.Analyzer, Message: d.Message,
				})
			} else {
				fmt.Fprintln(stdout, analysis.Format(pkg.Fset, d))
			}
		}
		if !*jsonOut {
			// findings doubles as the exit-code signal in JSON mode;
			// mirror the count for text mode.
			for range res.Diagnostics {
				findings = append(findings, jsonFinding{})
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		if findings == nil {
			findings = []jsonFinding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "detlint: %d finding(s)\n", len(findings))
		return 1
	}
	if *verbose {
		fmt.Fprintf(stderr, "detlint: clean (%d package(s), %d suppressed)\n", len(pkgs), suppressed)
	}
	return 0
}

// selectAnalyzers applies -only/-skip to the suite.
func selectAnalyzers(all []*analysis.Analyzer, only, skip string) ([]*analysis.Analyzer, error) {
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	parse := func(csv string) (map[string]bool, error) {
		if strings.TrimSpace(csv) == "" {
			return nil, nil
		}
		out := map[string]bool{}
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if byName[n] == nil {
				return nil, fmt.Errorf("detlint: unknown analyzer %q (see -list)", n)
			}
			out[n] = true
		}
		return out, nil
	}
	onlySet, err := parse(only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse(skip)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("detlint: no analyzers selected")
	}
	return out, nil
}
