package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// SuppressPrefix starts a suppression comment. A diagnostic is dropped
// when the line it points at — or the line directly above it — carries
//
//	//lint:mqssvet disable=<name>[,<name>...] [reason]
//
// naming the reporting analyzer (or "all"). Suppressions are deliberate,
// documented exceptions; the reason text is for the reader, not the tool.
const SuppressPrefix = "//lint:mqssvet"

// Run executes every analyzer over every package, applies Finish hooks,
// filters suppressed findings, and returns the surviving diagnostics in
// position order.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		results := map[string]any{}
		collect := func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a, Fset: fset, Files: pkg.Files,
				Pkg: pkg.Types, TypesInfo: pkg.Info, report: collect,
			}
			res, err := a.Run(pass)
			if err != nil {
				collect(Diagnostic{Pos: token.NoPos, Message: fmt.Sprintf("internal error in %s: %v", pkg.Path, err)})
				continue
			}
			if res != nil {
				results[pkg.Path] = res
			}
		}
		if a.Finish != nil {
			a.Finish(&FinishPass{Fset: fset, Results: results, report: collect})
		}
	}
	diags = filterSuppressed(fset, pkgs, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// filterSuppressed drops diagnostics covered by a //lint:mqssvet comment.
func filterSuppressed(fset *token.FileSet, pkgs []*Package, diags []Diagnostic) []Diagnostic {
	// filename → line → analyzers disabled on that line.
	suppressed := map[string]map[int][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, ok := parseSuppression(c.Text)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					byLine := suppressed[pos.Filename]
					if byLine == nil {
						byLine = map[int][]string{}
						suppressed[pos.Filename] = byLine
					}
					// The comment covers its own line and the next one, so
					// both trailing and preceding-line placements work.
					byLine[pos.Line] = append(byLine[pos.Line], names...)
					byLine[pos.Line+1] = append(byLine[pos.Line+1], names...)
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !covers(suppressed[pos.Filename][pos.Line], d.Analyzer) {
			kept = append(kept, d)
		}
	}
	return kept
}

// parseSuppression extracts the disabled analyzer names from a comment.
func parseSuppression(text string) ([]string, bool) {
	rest, ok := strings.CutPrefix(text, SuppressPrefix)
	if !ok {
		return nil, false
	}
	fields := strings.Fields(rest)
	for _, f := range fields {
		if list, ok := strings.CutPrefix(f, "disable="); ok {
			return strings.Split(list, ","), true
		}
	}
	return nil, false
}

// covers reports whether names disables analyzer (or everything).
func covers(names []string, analyzer string) bool {
	for _, n := range names {
		if n == analyzer || n == "all" {
			return true
		}
	}
	return false
}

// FuncMarked reports whether fn's doc comment (or a comment group ending
// on the line above the declaration) contains the given //mqss: marker —
// the analyzers' opt-in contract surface, e.g. //mqss:hotloop.
func FuncMarked(fn *ast.FuncDecl, marker string) bool {
	return commentGroupHas(fn.Doc, marker)
}

func commentGroupHas(g *ast.CommentGroup, marker string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		for _, field := range strings.Fields(c.Text) {
			if strings.TrimPrefix(field, "//") == marker {
				return true
			}
		}
	}
	return false
}
