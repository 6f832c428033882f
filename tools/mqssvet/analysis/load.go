package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The loader resolves packages without golang.org/x/tools/go/packages:
// `go list -export -deps -json` enumerates the target packages and every
// transitive dependency, compiling each dependency so its gc export data
// is on disk. Targets are then re-parsed from source (the analyzers need
// syntax trees with comments) and type-checked against that export data
// through the stdlib gc importer. The only external process is the go
// tool itself, which is by definition present.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists patterns (e.g. "./...") relative to dir, type-checks every
// matched package from source, and returns them with a shared FileSet.
// Dependency types come from gc export data, so the module must build.
func Load(dir string, patterns []string) ([]*Package, *token.FileSet, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if derr := dec.Decode(&p); derr == io.EOF {
			break
		} else if derr != nil {
			return nil, nil, fmt.Errorf("go list output: %v", derr)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue // test-only or empty package
		}
		var files []*ast.File
		for _, gf := range t.GoFiles {
			f, perr := parser.ParseFile(fset, filepath.Join(t.Dir, gf), nil, parser.ParseComments)
			if perr != nil {
				return nil, nil, perr
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, cerr := (&types.Config{Importer: imp}).Check(t.ImportPath, fset, files, info)
		if cerr != nil {
			return nil, nil, fmt.Errorf("typecheck %s: %v", t.ImportPath, cerr)
		}
		pkgs = append(pkgs, &Package{Path: t.ImportPath, Name: t.Name, Dir: t.Dir, Files: files, Types: pkg, Info: info})
	}
	return pkgs, fset, nil
}
