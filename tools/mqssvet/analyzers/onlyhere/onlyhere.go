// Package onlyhere checks the program against the module's layering: one
// reviewed table (Rules) of who may call, build, import or block where,
// matched on what the type checker sees. An exception belongs in the
// table, so no //lint:mqssvet comment silences a finding, and an entry the
// code no longer matches is a finding too.
package onlyhere

import (
	"bytes"
	"cmp"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mqsspulse/tools/mqssvet/analysis"
)

// A Rule confines facts to sites. A fact is a use of an object (path.Name,
// path.Type.Member; a method of an instantiated generic type with its type
// arguments, path.Type[path.Arg].Method), a write of a field
// (path.Type.field=), a value of a type built by a literal, new(T) or
// var x T (path.Type{}), a declaration (def Name), a type written out
// ([][2]float64), a constant switch case (case "sx"), a go statement, bare
// receive or .Wait() call (blocks), a comment marker (mqss:lockrank), or
// path importing a module package, which is then the site (path imports).
// Paths are relative to the module root, "" being the root package; a site
// is a package or a declaration in it (path.Func, path.Type,
// path.Type.Method) and holds the sites below it.
type Rule struct {
	ID, Why string   // the findings' prefix, and what the rule keeps
	Facts   []string // what it confines
	Scope   []string // the sites it reads; nil reads all
	// Allow holds the sites where a fact may occur. Each must still hold
	// one, and the test an entry names after a space (path.TestName for
	// another package's) must exist.
	Allow []string
}

// Analyzer checks this module against Rules.
var Analyzer = New("mqsspulse", Rules)

// New returns an analyzer checking the module whose path is root.
func New(root string, rules []Rule) *analysis.Analyzer {
	doc := "each rule of the onlyhere table confines a use, literal, import or blocking construct to the sites it allows"
	return &analysis.Analyzer{Name: "onlyhere", Doc: doc, Fixed: true, RunProgram: func(pass *analysis.Pass) error {
		c := &checker{pass, analysis.Names{Root: root}, map[string][]*Rule{}, map[string]*analysis.Package{}, map[string]token.Pos{}, map[[2]any]bool{}}
		for i := range rules {
			for _, f := range rules[i].Facts {
				c.facts[f] = append(c.facts[f], &rules[i])
			}
		}
		for _, pkg := range pass.Pkgs {
			c.pkgs[c.Rel(pkg.Path)] = pkg
			c.walk(pkg)
		}
		for i := range rules {
			c.stale(&rules[i])
		}
		return nil
	}}
}

type checker struct {
	pass *analysis.Pass
	analysis.Names
	facts map[string][]*Rule
	pkgs  map[string]*analysis.Package // by path below root
	sites map[string]token.Pos         // every declaration
	held  map[[2]any]bool              // {rule, Allow site} where a fact occurred
}

func (c *checker) walk(pkg *analysis.Package) {
	rel := c.Rel(pkg.Path)
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); c.Rel(p) != p {
				c.emit(rel+" imports", c.Rel(p), imp.Pos())
			}
		}
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if _, marker, ok := strings.Cut(cm.Text, "//mqss:"); ok {
					marker, _, _ = strings.Cut(marker, " ")
					c.emit("mqss:"+marker, rel, cm.Pos())
				}
			}
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				site := rel
				if fd.Recv != nil {
					site = c.Type(pkg.Info.TypeOf(fd.Recv.List[0].Type))
				}
				c.inspect(pkg.Info, fd, site+"."+fd.Name.Name)
				continue
			}
			for _, s := range d.(*ast.GenDecl).Specs {
				site := rel
				if ts, ok := s.(*ast.TypeSpec); ok {
					site += "." + ts.Name.Name
				}
				c.inspect(pkg.Info, s, site)
			}
		}
	}
}

// inspect emits the facts of one declaration, at site.
func (c *checker) inspect(info *types.Info, decl ast.Node, site string) {
	if _, seen := c.sites[site]; !seen {
		c.sites[site] = decl.Pos()
	}
	var comm ast.Expr // a select case's receive, which blocks only as the select does
	var pos token.Pos
	at := func(facts ...string) {
		for _, f := range facts {
			c.emit(f, site, pos)
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if n != nil {
			pos = n.Pos()
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				at(c.Object(obj))
			} else if info.Defs[n] != nil {
				at("def " + n.Name)
			}
		case *ast.SelectorExpr:
			at(c.Member(info, n))
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				at(c.Member(info, l) + "=")
			}
		case *ast.IncDecStmt:
			at(c.Member(info, n.X) + "=")
		case *ast.CompositeLit:
			t := c.Type(info.TypeOf(n))
			at(t + "{}")
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if f, ok := info.Uses[ident(kv.Key)].(*types.Var); ok && f.IsField() {
						at(t+"."+f.Name(), t+"."+f.Name()+"=")
					}
				}
			}
		case *ast.ValueSpec:
			if _, ptr := n.Type.(*ast.StarExpr); n.Type != nil && n.Values == nil && !ptr {
				at(c.Type(info.TypeOf(n.Type)) + "{}")
			}
		case *ast.CallExpr:
			if b, ok := info.Uses[ident(n.Fun)].(*types.Builtin); ok && b.Name() == "new" {
				at(c.Type(info.TypeOf(n.Args[0])) + "{}")
			} else if s, ok := n.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Wait" && len(n.Args) == 0 {
				at("blocks")
			}
		case *ast.ArrayType:
			at(c.Type(info.TypeOf(n)))
		case *ast.CaseClause:
			for _, e := range n.List {
				if v := info.Types[e].Value; v != nil && v.Kind() == constant.String {
					at("case " + v.ExactString())
				}
			}
		case *ast.CommClause:
			if s, ok := n.Comm.(*ast.ExprStmt); ok {
				comm = s.X
			} else if s, ok := n.Comm.(*ast.AssignStmt); ok {
				comm = s.Rhs[0]
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && n != comm {
				at("blocks")
			}
		case *ast.GoStmt:
			at("blocks")
		}
		return true
	})
}

func ident(e ast.Expr) *ast.Ident { id, _ := e.(*ast.Ident); return id }

// emit checks one fact at site against the rules confining it.
func (c *checker) emit(fact, site string, pos token.Pos) {
	for _, r := range c.facts[fact] {
		if _, in := match(site, r.Scope); r.Scope != nil && !in {
			continue
		}
		if e, ok := match(site, r.Allow); ok {
			c.held[[2]any{r, e}] = true
		} else {
			c.pass.Reportf(pos, "%s: %s in %s; %s", r.ID, fact, cmp.Or(site, "."), r.Why)
		}
	}
}

// match returns the first entry holding site.
func match(site string, entries []string) (string, bool) {
	for _, e := range entries {
		e, _, _ = strings.Cut(e, " ")
		if site == e || strings.HasPrefix(site, e+".") || strings.HasPrefix(site, e+"/") {
			return e, true
		}
	}
	return "", false
}

// stale reports the entries of r that name what the code no longer holds.
// It reads loaded packages only: over a partial tree the rest are unknown.
func (c *checker) stale(r *Rule) {
	report := func(pos token.Pos, format string, args ...any) {
		c.pass.Reportf(pos, r.ID+": stale table entry: "+format, args...)
	}
	for _, e := range append(append([]string{}, r.Facts...), r.Scope...) {
		for _, key := range objects(strings.TrimRight(e, "={}")) {
			if p, name := c.split(key); p != nil && name != "" && lookup(p.Types, name) == nil {
				report(token.NoPos, "%s does not exist", e)
			}
		}
	}
	for _, e := range r.Allow {
		site, test, _ := strings.Cut(e, " ")
		p, _ := c.split(site)
		if p != nil && !c.held[[2]any{r, site}] {
			report(c.sites[site], "%s holds none of %q", site, r.Facts)
		}
		if tp, name := c.split(test); name != "" {
			p, test = tp, name
		}
		if p != nil && test != "" && !hasTest(p.Dir, test) {
			report(c.sites[site], "%s has no test %s", site, test)
		}
	}
}

// objects lists the objects an entry names: itself, or for a method of an
// instantiated type, path.Type[path.Arg].Method, the method and each
// argument.
func objects(e string) []string {
	open := strings.Index(e, "[")
	n := strings.Index(e, "]")
	if open <= 0 || n < open {
		return []string{e}
	}
	return append([]string{e[:open] + e[n+1:]}, strings.Split(e[open+1:n], ",")...)
}

// split cuts path.Name.Member after the package path, returning the
// package if it is loaded.
func (c *checker) split(key string) (*analysis.Package, string) {
	i := strings.LastIndex(key, "/") + 1
	if j := strings.Index(key[i:], "."); j >= 0 {
		return c.pkgs[key[:i+j]], key[i+j+1:]
	}
	return c.pkgs[key], ""
}

// lookup resolves Name or Type.Member in p.
func lookup(p *types.Package, name string) types.Object {
	head, member, _ := strings.Cut(name, ".")
	obj := p.Scope().Lookup(head)
	if obj != nil && member != "" {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, p, member)
	}
	return obj
}

// hasTest reports whether a _test.go file in dir declares func name.
func hasTest(dir, name string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	for _, f := range files {
		if src, _ := os.ReadFile(f); bytes.Contains(src, []byte("\nfunc "+name+"(")) {
			return true
		}
	}
	return false
}
