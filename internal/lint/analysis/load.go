package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path the package was loaded under.
	Path string
	// Dir is the directory its sources were read from.
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// A Loader parses and type-checks packages without the go/packages
// machinery: module-internal imports resolve against the module tree on
// disk, everything else falls back to the standard library's
// from-source importer, so loading works offline and without build
// artifacts. Test files (_test.go) are left out of a package — the
// determinism contract governs production protocol code — and
// LoadTests checks them apart, for analyzers that count what tests
// use.
//
// Every module package is loaded exactly once and cached, whether it
// is a lint target or a dependency, so all packages in one Loader
// agree on type identity.
type Loader struct {
	// Fset positions every file the loader touches.
	Fset *token.FileSet
	// ModulePath/ModuleDir map module-internal import paths to
	// directories; empty ModulePath disables module resolution (used
	// by analyzer fixtures, which import only the standard library).
	ModulePath string
	ModuleDir  string

	std   types.Importer
	cache map[string]*Package
}

// NewLoader returns a loader for the module rooted at moduleDir.
func NewLoader(modulePath, moduleDir string) *Loader {
	// The source importer type-checks the standard library from source
	// through build.Default. With cgo enabled it would try to run the
	// cgo tool on packages like net; the pure-Go variants type-check
	// identically and keep the loader offline and toolchain-free.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*Package),
	}
}

// LoadDir parses and type-checks the single package in dir, recording
// it under importPath, with full type information for analysis.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.cache[importPath]; ok {
		return p, nil
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go source in %s", dir)
	}
	pkg, err := l.check(dir, importPath, files, l.importPath, false)
	if err != nil {
		return nil, err
	}
	l.cache[importPath] = pkg
	return pkg, nil
}

// LoadTests type-checks the _test.go files in pkg's directory, each
// package of them against what its go test build sees: the in-package
// test files together with pkg's own files, and the external _test
// package's files against that test build of pkg. It returns one
// Package per non-empty set, holding only the test files (and the
// types of everything its check saw). An external test that also
// imports a module package which imports pkg meets two builds of pkg
// there; go test rebuilds that importer, a loader cannot, so a check
// against a test build goes on past the mismatches that makes, and
// its type information holds everything else.
func (l *Loader) LoadTests(pkg *Package) ([]*Package, error) {
	tests, err := l.parseDir(pkg.Dir, true)
	if err != nil {
		return nil, err
	}
	var in, ext []*ast.File
	for _, f := range tests {
		if f.Name.Name == pkg.Types.Name() {
			in = append(in, f)
		} else {
			ext = append(ext, f)
		}
	}
	var out []*Package
	under := pkg.Types
	if len(in) > 0 {
		tp, err := l.check(pkg.Dir, pkg.Path, append(slices.Clone(pkg.Files), in...), l.importPath, false)
		if err != nil {
			return nil, err
		}
		under, tp.Files = tp.Types, in
		out = append(out, tp)
	}
	if len(ext) > 0 {
		imp := func(path string) (*types.Package, error) {
			if path == pkg.Path {
				return under, nil
			}
			return l.importPath(path)
		}
		xp, err := l.check(pkg.Dir, pkg.Path+"_test", ext, imp, under != pkg.Types)
		if err != nil {
			return nil, err
		}
		out = append(out, xp)
	}
	return out, nil
}

// check type-checks files as package importPath with full type
// information for analysis; tolerant, it records what it can past
// type errors and reports none.
func (l *Loader) check(dir, importPath string, files []*ast.File, imp importerFunc, tolerant bool) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	if tolerant {
		conf.Error = func(error) {}
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil && !tolerant {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{
		Path:      importPath,
		Dir:       dir,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// importPath resolves one import for the type checker: module-internal
// paths load (and cache) from the module tree, the rest go to the
// standard-library source importer.
func (l *Loader) importPath(path string) (*types.Package, error) {
	if l.ModulePath != "" && (path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")) {
		dir := filepath.Join(l.ModuleDir, strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/"))
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// parseDir parses the .go files in dir, the _test.go ones when tests
// is set and the others when not, in name order so positions (and
// therefore diagnostic order) are stable.
func (l *Loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") != tests {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
