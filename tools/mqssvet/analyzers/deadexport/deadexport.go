// Package deadexport checks that product code has a product reader: an
// exported declaration under internal/ that no non-test Go references, or
// a struct field there that non-test Go writes and never reads, is dead or
// a test oracle, and belongs deleted or in the tests that use it. It reads
// the whole program, because a name's readers live in other packages.
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

// Analyzer checks this module against its allowlist.
var Analyzer = New("mqsspulse", allowed)

// New returns the check of the module whose path is root; allow maps
// names and fields (path.Name, path.Type.Member) that are not reported to
// the reason why.
func New(root string, allow map[string]string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "deadexport",
		Doc:  "an exported declaration under internal/ must be referenced by non-test Go, satisfy an interface, or be allowlisted with a reason; a field non-test Go writes must be read",
		RunProgram: func(pass *analysis.Pass) error {
			run(pass, analysis.Names{Root: root}, allow)
			return nil
		},
	}
}

// testSupport names the packages below the root that exist for tests:
// their exports are what tests call.
var testSupport = map[string]bool{"internal/qdmi/qdmitest": true, "internal/testutil": true}

// allowed keeps names and fields that have no non-test reader. Each says why.
var allowed = map[string]string{
	"internal/client.remoteError.Unwrap":    "errors.Is and errors.As call it through an unnamed interface{ Unwrap() error }",
	"internal/qpi.Circuit.Y":                "the paper's QPI gate builder; the facade's Circuit offers every gate of the gate table",
	"internal/qpi.Circuit.Z":                "the paper's QPI gate builder; the facade's Circuit offers every gate of the gate table",
	"internal/qpi.Circuit.RY":               "the paper's QPI gate builder; the facade's Circuit offers every gate of the gate table",
	"internal/qpi.Circuit.FrameChangeP":     "the QPI builder for a swept frame change, the symbolic form of FrameChange",
	"internal/qrm.Ticket.Device":            "the facade's Ticket reports the device a pool or a steal placed the job on",
	"internal/simq.ExecOptions.ShotWorkers": "a deprecated no-op the benchmark compiles against (onlyhere's rule \"one sampler\")",
	"internal/simq.ExecResult.FinalState":   "a test oracle: simq's tests pin the fast engines against the exact reference through the final state",
	"internal/simq.ExecResult.FinalDensity": "a test oracle: simq's tests pin the fast engines against the exact reference through the final state",
	"internal/simq.State.Dims":              "the shape simq's test algebra addresses a site of the final state by",
	"internal/simq.Density.Dims":            "the shape simq's test algebra addresses a site of the final state by",
	"internal/qrm.ticketCtx.AfterFunc":      "context.WithCancel and context.AfterFunc call it through the context package's unexported afterFuncer interface, so a context derived from a ticket's starts no goroutine",
}

func run(pass *analysis.Pass, names analysis.Names, allow map[string]string) {
	refs, loaded := map[string]bool{}, map[string]bool{}
	use := fieldUse{names, map[string]bool{}, map[string]bool{}}
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
		collectRefs(pkg, names, refs)
		use.collect(pkg, names.Rel(pkg.Path) == "")
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
		root, ok := internalRoot(pkg)
		if _, done := whole[root]; ok && !done {
			whole[root] = allLoaded(root, loaded)
		}
		if !ok || testSupport[names.Rel(pkg.Path)] || !whole[root] {
			continue // not product code, or an importer may be a package the run did not load
		}
		for id, obj := range pkg.Info.Defs {
			if obj == nil || !id.IsExported() || !topLevel(pkg, obj) {
				continue
			}
			k := names.Object(obj)
			if !refs[k] && allow[k] == "" && !satisfies(obj, ifaces) {
				pass.Reportf(id.Pos(), "exported %s%s has no non-test reference: delete it, move it to the tests that use it, or allowlist it with a reason",
					pkg.Name, strings.TrimPrefix(k, names.Rel(pkg.Path)))
			}
		}
		use.report(pass, pkg, allow)
	}
}

// collectRefs records every object pkg references, except a declaration's
// references to itself and a method's to its receiver type: a type all of
// whose uses are its own methods is as dead as an uncalled function.
func collectRefs(pkg *analysis.Package, names analysis.Names, refs map[string]bool) {
	type span struct {
		start, end token.Pos
		own        [2]string // the declaration, and a method's receiver type
	}
	var spans []span // sorted by start: files and their decls are in order
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				s := span{d.Pos(), d.End(), [2]string{names.Object(pkg.Info.Defs[d.Name])}}
				if d.Recv != nil {
					s.own[1] = names.Type(pkg.Info.TypeOf(d.Recv.List[0].Type))
				}
				spans = append(spans, s)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						spans = append(spans, span{ts.Pos(), ts.End(), [2]string{names.Object(pkg.Info.Defs[ts.Name])}})
					}
				}
			}
		}
	}
	for id, obj := range pkg.Info.Uses {
		if obj.Pkg() == nil || !obj.Exported() {
			continue // only an exported name is ever reported
		}
		k := names.Object(obj)
		i, _ := slices.BinarySearchFunc(spans, id.Pos(), func(s span, p token.Pos) int { return cmp.Compare(s.start, p+1) })
		if i > 0 && id.Pos() < spans[i-1].end && (spans[i-1].own[0] == k || spans[i-1].own[1] == k) {
			continue
		}
		refs[k] = true
	}
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

// internalRoot is the directory of the tree Go lets import pkg, if pkg's
// path has an internal element.
func internalRoot(pkg *analysis.Package) (string, bool) {
	i := strings.Index(pkg.Path+"/", "/internal/")
	if i < 0 {
		return "", false
	}
	return strings.CutSuffix(pkg.Dir, filepath.FromSlash(pkg.Path[i:]))
}

// allLoaded reports whether every directory under root that holds non-test
// Go the go tool would build is a loaded package: only then are all of
// root's internal packages' importers in the run.
func allLoaded(root string, loaded map[string]bool) bool {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		} else if name := d.Name(); d.IsDir() && path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		} else if !d.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !loaded[filepath.Dir(path)] {
			return fs.ErrNotExist
		}
		return nil
	}) == nil
}
