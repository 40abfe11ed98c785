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
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range named {
		if !declared[m[1]] {
			t.Errorf("DESIGN.md's experiment index names %s, which no _test.go file declares", m[1])
		}
	}
}
