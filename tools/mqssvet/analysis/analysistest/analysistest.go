// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against // want annotations — the same contract as
// golang.org/x/tools/go/analysis/analysistest, scoped to what the vendored
// framework supports (see the analysis package for why the mirror exists).
//
// A fixture is one package directory under testdata/. Lines expecting a
// diagnostic carry a trailing comment of the form
//
//	code() // want "regexp"
//
// with one or more quoted regular expressions, each consuming one
// diagnostic reported on that line. As upstream, a "// want" inside
// another comment counts from there, so a fixture can expect a diagnostic
// on a //lint:mqssvet line. Runs go through the full pipeline — per-package
// Run and the //lint:mqssvet suppression filter, against the whole suite's
// names — so fixtures can also pin the suppression contract.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mqsspulse/tools/mqssvet/analysis"
	"mqsspulse/tools/mqssvet/suite"
)

// Run loads the fixture package at pattern (a directory path relative to
// the test's working directory, e.g. "./testdata/src/ctxflow"), applies
// the analyzers, and reports mismatches against the // want annotations.
func Run(t *testing.T, pattern string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkgs, fset, err := analysis.Load(".", []string{pattern})
	if err != nil {
		t.Fatalf("load %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("load %s: no packages", pattern)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					patterns, ok := parseWant(c.Text)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					for _, p := range patterns {
						re, err := regexp.Compile(p)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, p, err)
						}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}

	for _, d := range analysis.Run(fset, pkgs, analyzers, suite.All) {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		if i := matchWant(wants[k], d.Message); i >= 0 {
			wants[k] = append(wants[k][:i], wants[k][i+1:]...)
			continue
		}
		t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
		}
	}
}

// parseWant extracts the quoted patterns from a `// want "…" "…"` comment,
// or from the `// want` tail of another comment.
func parseWant(text string) ([]string, bool) {
	_, body, ok := strings.Cut(text, "// want ")
	if !ok {
		return nil, false
	}
	var patterns []string
	rest := strings.TrimSpace(body)
	for rest != "" {
		if rest[0] != '"' {
			return nil, false
		}
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, false
		}
		p, err := strconv.Unquote(q)
		if err != nil {
			return nil, false
		}
		patterns = append(patterns, p)
		rest = strings.TrimSpace(rest[len(q):])
	}
	return patterns, len(patterns) > 0
}

// matchWant returns the index of the first pattern matching msg, or -1.
func matchWant(res []*regexp.Regexp, msg string) int {
	for i, re := range res {
		if re.MatchString(msg) {
			return i
		}
	}
	return -1
}
