// Package main is the deadcode fixture: for each root rule one function
// reached only that way, each beside an unreached control that must be
// reported.
package main // want "fix/dcmain.gone is listed exempt, but fix/dcmain does not declare it"

import (
	"fmt"
	"net/http"

	"fix/dchelp"
	"fix/dcknob"
)

func main() {
	dchelp.Used()

	var t tool
	f := t.viaMethodValue // a method value reaches its method
	f()

	var s shape = circle{}
	_ = s.area() // interface dispatch reaches every area method

	_ = measure(box{}) // a type-parameter call reaches every size method

	table["a"]()
	fmt.Println(color(1))
	reachedAwaited()

	c := dcknob.Config{ByKey: 1}
	c.ByAssign = 2
	fmt.Sscan("3", &c.ByAddress)
	p := dcknob.DefaultParams()
	p.NowTurned = 4
	fmt.Println(dcknob.New(c), p, dcknob.Options[int]{Less: func(a, b int) bool { return a < b }})
}

func init() { fromInit() }

func fromInit() {}

// Method values.

type tool struct{}

func (tool) viaMethodValue() {}

func (tool) neverValued() {} // want "\\(fix/dcmain.tool\\).neverValued is unreachable"

// Interface dispatch.

type shape interface{ area() int }

type circle struct{}

func (circle) area() int { return 3 }

type square struct{} // never built, yet its area is dispatch-reachable

func (square) area() int { return 4 }

func (square) perimeter() int { return 16 } // want "\\(fix/dcmain.square\\).perimeter is unreachable"

// Type-parameter calls.

type box struct{}

func measure[T interface{ size() int }](v T) int { return v.size() }

func (box) size() int { return 1 }

func (box) weight() int { return 2 } // want "\\(fix/dcmain.box\\).weight is unreachable"

// Package-level initialisers.

var table = map[string]func(){"a": fromTable}

func fromTable() {}

func notInTable() {} // want "fix/dcmain.notInTable is unreachable"

// Standard-library interfaces: fmt.Stringer's String, and an
// http.ResponseWriter's WriteHeader, which net/http calls.

type color int

func (c color) String() string { return "red" }

func (c color) Strings() []string { return nil } // want "\\(fix/dcmain.color\\).Strings is unreachable"

type recorder struct{ code int }

func (r *recorder) WriteHeader(code int) { r.code = code }

func (r *recorder) Header() http.Header { return nil }

func (r *recorder) WriteStatus(code string) {} // want "\\(\\*fix/dcmain.recorder\\).WriteStatus is unreachable"

// What only tests call: dcmain_test.go calls it, and test files are no
// program.

func (tool) Term() int { return 1 } // want "\\(fix/dcmain.tool\\).Term is unreachable"

func onlyTests() int { return 2 } // want "fix/dcmain.onlyTests is unreachable"

// The awaiting list: awaited stays unreached and unreported; once a
// listed function is reachable, that is the finding.

func awaited() {}

func reachedAwaited() {} // want "fix/dcmain.reachedAwaited is reachable now"
