// Command mqssvet is the stack's static-analysis entry point: a
// multichecker that enforces the cross-layer invariants no test can hold,
// because they span paths no test drives — byte-determinism of the
// lowering pipeline, context plumbing, hot-loop allocation discipline,
// doc-comment coverage, that product code has a product caller, and the
// layering table of onlyhere: who may submit to a device, build a request,
// import, spawn or wait where. Four analyzers read one function at a time;
// deadexport and onlyhere read the whole program. It is the one CI lint
// step:
//
//	go run ./tools/mqssvet ./...
//
// Unless -novet is given it also runs `go vet` over the same patterns so
// the standard analyzers ride in the same invocation. With -json the
// findings are emitted as a SARIF-lite JSON document on stdout (CI
// uploads it as a build artifact) and the vet pass writes to stderr.
// Findings can be suppressed line-by-line with //lint:mqssvet
// disable=<name> comments; see tools/mqssvet/analysis for the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"strings"

	"mqsspulse/tools/mqssvet/analysis"
	"mqsspulse/tools/mqssvet/suite"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	novet := flag.Bool("novet", false, "skip the go vet pass")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as SARIF-lite JSON on stdout (go vet output moves to stderr)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mqssvet [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range suite.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqssvet:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, fset, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mqssvet: load:", err)
		os.Exit(2)
	}

	diags := analysis.Run(fset, pkgs, analyzers, suite.All)
	if *jsonOut {
		if err := writeJSON(os.Stdout, fset, diags); err != nil {
			fmt.Fprintln(os.Stderr, "mqssvet: json:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}

	vetFailed := false
	if !*novet {
		vetFailed = !runGoVet(patterns, *jsonOut)
	}

	if len(diags) > 0 || vetFailed {
		os.Exit(1)
	}
}

// writeJSON emits the findings as a SARIF-lite document: enough structure
// for CI artifact tooling to index them by file, line and analyzer without
// the full SARIF schema.
func writeJSON(w *os.File, fset *token.FileSet, diags []analysis.Diagnostic) error {
	type result struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	results := []result{}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		results = append(results, result{pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Tool    string   `json:"tool"`
		Version int      `json:"version"`
		Results []result `json:"results"`
	}{"mqssvet", 2, results})
}

// selectAnalyzers resolves the -only flag against the suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite.All, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range suite.All {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// runGoVet runs the standard vet analyzers over the same patterns so CI
// needs only one lint entry point. Returns true on a clean pass. When
// stdout carries the JSON document, vet findings go to stderr instead.
func runGoVet(patterns []string, toStderr bool) bool {
	cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
	cmd.Stdout = os.Stdout
	if toStderr {
		cmd.Stdout = os.Stderr
	}
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		fmt.Fprintln(os.Stderr, "mqssvet: go vet:", err)
	}
	return err == nil
}
