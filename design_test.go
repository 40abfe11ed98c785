package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentIndexNamesDeclaredTests keeps DESIGN.md's experiment
// index honest: every Test* or Benchmark* a row names must be declared
// by some _test.go file of the module, so a renamed test cannot leave
// the index pointing at nothing.
func TestExperimentIndexNamesDeclaredTests(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "## Experiment index")
	if start < 0 {
		t.Fatal("DESIGN.md has no experiment index")
	}
	index := doc[start:]
	if end := strings.Index(index[1:], "\n## "); end >= 0 {
		index = index[:end+1]
	}
	named := regexp.MustCompile("`((?:Test|Benchmark)\\w+)`").FindAllStringSubmatch(index, -1)
	if len(named) == 0 {
		t.Fatal("the experiment index names no tests")
	}

	declared := make(map[string]bool)
	for _, f := range parseModule(t, token.NewFileSet(), func(path string) bool { return strings.HasSuffix(path, "_test.go") }) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
	}
	for _, m := range named {
		if !declared[m[1]] {
			t.Errorf("DESIGN.md's experiment index names %s, which no _test.go file declares", m[1])
		}
	}
}

// TestOneOutbox keeps the output half of the module contract written
// once: types.Outbox holds every module's Drain and types.Decisions its
// TakeDecisions, so no other program file declares either method (as
// the contract has it, without parameters; shard.Service's per-shard
// TakeDecisions is a host's view of its replicas). servebench's idle
// module is the one exception.
func TestOneOutbox(t *testing.T) {
	own := func(path string) bool {
		dir := filepath.ToSlash(filepath.Dir(path))
		return !strings.HasSuffix(path, "_test.go") && dir != "internal/types" && dir != "cmd/servebench"
	}
	fset := token.NewFileSet()
	for _, f := range parseModule(t, fset, own) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Type.Params.NumFields() == 0 &&
				(fn.Name.Name == "Drain" || fn.Name.Name == "TakeDecisions") {
				t.Errorf("%s declares its own %s: embed types.Outbox or types.Decisions", fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
	}
}

// parseModule parses into fset every Go file of the module that keep
// selects, outside testdata and hidden or underscore directories.
func parseModule(t *testing.T, fset *token.FileSet, keep func(path string) bool) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || !keep(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
