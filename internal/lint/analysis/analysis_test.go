package analysis_test

import (
	"go/ast"
	"strings"
	"testing"

	"fortyconsensus/internal/lint/analysis"
)

// retAnalyzer flags every return statement, giving the driver test a
// deterministic stream of diagnostics to suppress.
var retAnalyzer = &analysis.Analyzer{
	Name: "retstmt",
	Doc:  "flag every return statement (driver test fixture)",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if r, ok := n.(*ast.ReturnStmt); ok {
					pass.Reportf(r.Pos(), "return statement")
				}
				return true
			})
		}
		return nil, nil
	},
}

func TestDirectiveValidationAndSuppression(t *testing.T) {
	loader := analysis.NewLoader("", "")
	pkg, err := loader.LoadDir("testdata/src/bad", "bad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(nil, pkg, nil, retAnalyzer)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{
		"names no check",    // //lint:allow with nothing after it
		"carries no reason", // //lint:allow somecheck
		"return statement",  // Uncovered's return survives
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics %q, want %d", len(diags), got, len(want))
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if strings.Contains(g, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in %q", w, got)
		}
	}
	// The suppressed return must be Covered's, i.e. the surviving
	// return diagnostic sits in Uncovered (line 18).
	for _, d := range diags {
		if strings.Contains(d.Message, "return statement") {
			if line := pkg.Fset.Position(d.Pos).Line; line != 18 {
				t.Errorf("surviving return diagnostic at line %d, want 18 (Uncovered)", line)
			}
		}
	}
}

func TestUnusedDirectiveReported(t *testing.T) {
	loader := analysis.NewLoader("", "")
	pkg, err := loader.LoadDir("testdata/src/stale", "stale")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(nil, pkg, nil, retAnalyzer)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		var got []string
		for _, d := range diags {
			got = append(got, d.Message)
		}
		t.Fatalf("got %d diagnostics %q, want exactly the stale-directive finding", len(diags), got)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "suppresses nothing") || d.Category != "directive" {
		t.Errorf("diagnostic = %q [%s], want a directive finding about suppressing nothing", d.Message, d.Category)
	}
	if line := pkg.Fset.Position(d.Pos).Line; line != 5 {
		t.Errorf("stale directive reported at line %d, want 5", line)
	}
	// A check that did not run gets the benefit of the doubt: running
	// no analyzers must report nothing, used or not.
	diags, err = analysis.Run(nil, pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("with no analyzers run, got %d diagnostics, want 0", len(diags))
	}
}
