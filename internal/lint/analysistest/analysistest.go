// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only (the module is offline by policy).
//
// Fixture layout and expectation syntax follow the upstream tool:
// sources live in <testdata>/src/<pkg>/, and a line that should be
// flagged carries a trailing comment
//
//	// want "regexp" ["regexp" ...]
//
// with one regexp per expected diagnostic on that line. Diagnostics
// are matched after //lint:allow filtering, so fixtures also prove
// that suppression works.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fortyconsensus/internal/lint/analysis"
)

// Run loads each fixture package from dir/src and applies a, reporting
// any mismatch between diagnostics and // want expectations on t.
//
// Every package directory under dir/src is loaded (as module "fix", so
// fixtures may import each other as "fix/<name>") and a whole-program
// view is built over them, but only the packages named in pkgs are
// analyzed and want-checked: helper packages exist to be reached
// through the call graph, exactly like the module's internal helpers.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	src := filepath.Join(dir, "src")
	loader := analysis.NewLoader("fix", src)
	loaded := make(map[string]*analysis.Package)
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("reading fixture root %s: %v", src, err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		pkg, err := loader.LoadDir(filepath.Join(src, e.Name()), "fix/"+e.Name())
		if err != nil {
			t.Fatalf("loading fixture %s: %v", e.Name(), err)
		}
		loaded[e.Name()] = pkg
	}
	prog := analysis.NewProgram(loader)
	for _, name := range pkgs {
		pkg := loaded[name]
		if pkg == nil {
			t.Errorf("fixture package %s not found under %s", name, src)
			continue
		}
		diags, err := analysis.Run(prog, pkg, nil, a)
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, name, err)
			continue
		}
		check(t, pkg, diags)
	}
}

// expectation is one unmatched want regexp.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
}

func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, rx := range parseWant(t, pos.String(), c.Text) {
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.rx != nil && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.rx = nil // consumed
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if w.rx != nil {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.rx)
		}
	}
}

// parseWant extracts the quoted regexps from a `// want "..."` comment.
func parseWant(t *testing.T, at, text string) []*regexp.Regexp {
	t.Helper()
	i := strings.Index(text, "// want ")
	if i < 0 {
		return nil
	}
	rest := strings.TrimSpace(text[i+len("// want "):])
	var rxs []*regexp.Regexp
	for rest != "" {
		if rest[0] != '"' {
			t.Errorf("%s: malformed want clause %q", at, rest)
			return rxs
		}
		end := 1
		for end < len(rest) && (rest[end] != '"' || rest[end-1] == '\\') {
			end++
		}
		if end == len(rest) {
			t.Errorf("%s: unterminated want regexp in %q", at, rest)
			return rxs
		}
		lit, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			t.Errorf("%s: bad want literal %q: %v", at, rest[:end+1], err)
			return rxs
		}
		rx, err := regexp.Compile(lit)
		if err != nil {
			t.Errorf("%s: bad want regexp %q: %v", at, lit, err)
			return rxs
		}
		rxs = append(rxs, rx)
		rest = strings.TrimSpace(rest[end+1:])
	}
	return rxs
}
