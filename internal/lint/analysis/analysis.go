// Package analysis is a standard-library-only miniature of
// golang.org/x/tools/go/analysis, carrying exactly the surface the
// consensus-lint analyzers need: an Analyzer with a Run function, a
// Pass giving it one type-checked package, plain positional
// Diagnostics, and a driver that applies the repo's suppression
// directive. The module is offline and dependency-free by policy
// (Makefile header), so the real x/tools framework is mirrored rather
// than imported; Analyzer and Pass keep field-for-field compatible
// names so the analyzers port to the upstream API mechanically if the
// dependency ever becomes available.
//
// # Suppression directive
//
//	//lint:allow <check> <reason>
//
// placed on the flagged line or on the line directly above it
// suppresses diagnostics of that check at that site. The reason is
// mandatory: a directive without one is itself reported, so every
// suppression in the tree carries a written correctness argument.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the check; it is the token suppression
	// directives name and drivers print.
	Name string
	// Doc is the one-paragraph description shown by the driver.
	Doc string
	// Run applies the check to one package and reports findings via
	// pass.Report / pass.Reportf. The non-error return value is
	// unused; it mirrors the upstream signature.
	Run func(*Pass) (interface{}, error)
}

// A Pass hands an Analyzer one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Prog is the whole-program view (call graph plus every loaded
	// package) for interprocedural analyzers. Drivers that analyze a
	// single package in isolation may leave it nil; analyzers must
	// degrade to intra-package reasoning in that case.
	Prog *Program
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos token.Pos
	// Category is the check name a suppression directive must use;
	// the driver fills it with the Analyzer name when empty.
	Category string
	Message  string
}

// Run applies analyzers to pkg, with the whole-program view prog (nil
// for intra-package reasoning only) attached to each Pass, filters the
// results through the package's //lint:allow directives, and returns
// the surviving diagnostics in file/line order. Malformed directives
// (no check name or no reason) are reported as diagnostics of category
// "directive", and so is any directive that suppressed nothing even
// though its check ran — a stale suppression is a correctness argument
// nobody is using, and deleting it is the only way to keep the audit
// trail honest. onTime, when non-nil, receives each analyzer's
// wall-clock run time over this package, so drivers can show where a
// lint pass spends its budget.
func Run(prog *Program, pkg *Package, onTime func(a *Analyzer, elapsed time.Duration), analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Prog:      prog,
		}
		pass.Report = func(d Diagnostic) {
			if d.Category == "" {
				d.Category = a.Name
			}
			diags = append(diags, d)
		}
		start := time.Now()
		_, err := a.Run(pass)
		if onTime != nil {
			onTime(a, time.Since(start))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.Path, a.Name, err)
		}
	}
	allows, bad := directives(pkg)
	kept := diags[:0]
	for _, d := range diags {
		if !suppress(pkg.Fset, d, allows) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	// An allow whose check ran over this package but matched no
	// diagnostic is dead weight: either the code it excused was fixed,
	// or a stricter analyzer no longer flags the site. Checks that did
	// not run get the benefit of the doubt.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, a := range allows {
		if a.used || !ran[a.check] {
			continue
		}
		kept = append(kept, Diagnostic{Pos: a.pos, Category: "directive",
			Message: fmt.Sprintf("lint:allow %s suppresses nothing here; delete the stale directive", a.check)})
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(kept[i].Pos), pkg.Fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return kept, nil
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	file  string
	line  int
	check string
	pos   token.Pos
	used  bool
}

const directivePrefix = "//lint:allow"

// directives scans every comment in pkg for suppression directives.
// Directives missing a check name or a reason are returned as
// diagnostics instead of suppressions.
func directives(pkg *Package) ([]*allowDirective, []Diagnostic) {
	var allows []*allowDirective
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Category: "directive",
						Message: "lint:allow directive names no check (want //lint:allow <check> <reason>)"})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Category: "directive",
						Message: fmt.Sprintf("lint:allow %s carries no reason; every suppression must state its correctness argument", fields[0])})
					continue
				}
				allows = append(allows, &allowDirective{file: pos.Filename, line: pos.Line, check: fields[0], pos: c.Pos()})
			}
		}
	}
	return allows, bad
}

// suppress reports whether d is covered by a directive on its line or
// the line directly above, marking the directive used.
func suppress(fset *token.FileSet, d Diagnostic, allows []*allowDirective) bool {
	pos := fset.Position(d.Pos)
	for _, a := range allows {
		if a.file == pos.Filename && a.check == d.Category && (a.line == pos.Line || a.line == pos.Line-1) {
			a.used = true
			return true
		}
	}
	return false
}
