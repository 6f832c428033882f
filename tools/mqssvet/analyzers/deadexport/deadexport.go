// Package deadexport checks that product code has a product caller: an
// exported declaration under internal/ that no non-test Go in the module
// references is either dead or a test oracle, and belongs deleted or in the
// tests that use it. It is the one mqssvet analyzer that reads the whole
// program, because a name's callers live in other packages.
package deadexport

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"

	"mqsspulse/tools/mqssvet/analysis"
)

// Analyzer is the deadexport check.
var Analyzer = &analysis.Analyzer{
	Name:       "deadexport",
	Doc:        "an exported declaration under internal/ must be referenced by non-test Go, satisfy an interface, or be allowlisted with a reason",
	RunProgram: run,
}

// testSupport names the packages below internal/ that exist for tests:
// their exports are what tests call.
var testSupport = map[string]bool{"qdmi/qdmitest": true, "testutil": true}

// allowed keeps exported names that have no non-test reference, keyed by
// package path below internal/, receiver type and name. Each says why.
var allowed = map[string]string{
	"client.remoteError.Unwrap": "errors.Is and errors.As call it through an unnamed interface{ Unwrap() error }",
	"qpi.Circuit.Y":             "the paper's QPI gate builder; the facade's Circuit offers every gate of the gate table",
	"qpi.Circuit.Z":             "the paper's QPI gate builder; the facade's Circuit offers every gate of the gate table",
	"qpi.Circuit.RY":            "the paper's QPI gate builder; the facade's Circuit offers every gate of the gate table",
	"qpi.Circuit.FrameChangeP":  "the QPI builder for a swept frame change, the symbolic form of FrameChange",
	"qrm.Ticket.Tag":            "the facade's Ticket reads back the label WithTag set; calibration tags its jobs",
	"qrm.Ticket.Device":         "the facade's Ticket reports the device a pool or a steal placed the job on",
	"qrm.ticketCtx.AfterFunc":   "context.WithCancel and context.AfterFunc call it through the context package's unexported afterFuncer interface, so a context derived from a ticket's starts no goroutine",
}

// key identifies a declaration across the two views of it a run holds: the
// source object its package was checked with, and the object another
// package's import of gc export data makes of it.
type key struct{ pkg, recv, name string }

func run(pass *analysis.Pass) error {
	refs, loaded := map[key]bool{}, map[string]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	seen := map[any]bool{}                    // interface types and scanned imports
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[t] {
			seen[t] = true
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	for _, pkg := range pass.Pkgs {
		loaded[pkg.Dir] = true
		collectRefs(pkg, refs)
		for _, tv := range pkg.Info.Types {
			addIface(tv.Type)
		}
		for _, imp := range pkg.Types.Imports() {
			if !seen[imp] {
				seen[imp] = true
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
						addIface(tn.Type())
					}
				}
			}
		}
	}

	whole := map[string]bool{}
	for _, pkg := range pass.Pkgs {
		rel, root, ok := belowInternal(pkg)
		if _, done := whole[root]; ok && !done {
			whole[root] = allLoaded(root, loaded)
		}
		if !ok || testSupport[rel] || !whole[root] {
			continue // not product code, or an importer may be a package the run did not load
		}
		for id, obj := range pkg.Info.Defs {
			if obj == nil || !id.IsExported() || !topLevel(pkg, obj) {
				continue
			}
			k := keyOf(obj)
			name := strings.TrimPrefix(k.recv+"."+k.name, ".")
			if !refs[k] && allowed[rel+"."+name] == "" && !satisfies(obj, ifaces) {
				pass.Reportf(id.Pos(), "exported %s.%s has no non-test reference: delete it, move it to the tests that use it, or allowlist it with a reason", pkg.Name, name)
			}
		}
	}
	return nil
}

// collectRefs records every object pkg references, except a declaration's
// references to itself and a method's to its receiver type: a type all of
// whose uses are its own methods is as dead as an uncalled function.
func collectRefs(pkg *analysis.Package, refs map[key]bool) {
	type span struct {
		start, end token.Pos
		own        [2]key // the declaration, and a method's receiver type
	}
	var spans []span // sorted by start: files and their decls are in order
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				k := keyOf(pkg.Info.Defs[d.Name])
				spans = append(spans, span{d.Pos(), d.End(), [2]key{k, {pkg: k.pkg, name: k.recv}}})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						spans = append(spans, span{ts.Pos(), ts.End(), [2]key{keyOf(pkg.Info.Defs[ts.Name])}})
					}
				}
			}
		}
	}
	for id, obj := range pkg.Info.Uses {
		if obj.Pkg() == nil || !obj.Exported() {
			continue // only an exported name is ever reported
		}
		k := keyOf(obj)
		i, _ := slices.BinarySearchFunc(spans, id.Pos(), func(s span, p token.Pos) int { return cmp.Compare(s.start, p+1) })
		if i > 0 && id.Pos() < spans[i-1].end && (spans[i-1].own[0] == k || spans[i-1].own[1] == k) {
			continue
		}
		refs[k] = true
	}
}

// keyOf keys obj by package path, receiver type name and name.
func keyOf(obj types.Object) key {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	k := key{name: obj.Name()}
	if obj.Pkg() != nil {
		k.pkg = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		t := types.Unalias(fn.Signature().Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			k.recv = n.Obj().Name()
		}
	}
	return k
}

// satisfies reports whether obj is a method that, with its siblings, makes
// its type implement an interface the program declares, names or imports:
// such a method is called through the interface, which no reference shows.
func satisfies(obj types.Object, ifaces map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return false
	}
	t := fn.Signature().Recv().Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(t, it) {
			return true
		}
	}
	return false
}

// topLevel reports whether obj is a package-level declaration or a method
// of a concrete type, not a local, a field or an interface's method.
func topLevel(pkg *analysis.Package, obj types.Object) bool {
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		_, iface := fn.Signature().Recv().Type().Underlying().(*types.Interface)
		return !iface
	}
	return obj.Parent() == pkg.Types.Scope()
}

// belowInternal splits pkg's import path at its first internal element: rel
// is the path below it, and root the directory of the tree Go lets import
// the package.
func belowInternal(pkg *analysis.Package) (rel, root string, ok bool) {
	i := strings.Index(pkg.Path+"/", "/internal/")
	if i < 0 {
		return "", "", false
	}
	below := pkg.Path[i:] // "/internal/<rel>"
	root, ok = strings.CutSuffix(pkg.Dir, filepath.FromSlash(below))
	return strings.TrimPrefix(below, "/internal/"), root, ok
}

// allLoaded reports whether every directory under root that holds non-test
// Go the go tool would build is a loaded package: only then are all of
// root's internal packages' importers in the run.
func allLoaded(root string, loaded map[string]bool) bool {
	ok := true
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			ok = false
			return filepath.SkipAll
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !loaded[filepath.Dir(path)] {
			ok = false
			return filepath.SkipAll
		}
		return nil
	})
	return ok
}
