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
	_ = s.area() // interface dispatch reaches the area of every type reached code mentions

	var l labeled = tagged{}
	_ = l.label() // and of the types those embed

	_ = measure(box{}) // a type-parameter call reaches every size method

	_ = fetch[int](cell{}) // a generic interface's call reaches the methods of its implementers

	drive[int](&replica{}) // through an embedded generic type too
	var st stepper         // mentioned, but no machine: it has no Tick
	_ = st
	_ = lowest(frontiers[int, *replica]{})

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

// square's constructor is out of reach, so no square is behind the
// shape the interface call dispatches on.
type square struct{}

func newSquare() shape { return square{} } // want "fix/dcmain.newSquare is unreachable"

func (square) area() int { return 4 } // want "\\(fix/dcmain.square\\).area is unreachable"

type labeled interface{ label() string }

type base struct{}

func (base) label() string { return "base" } // reached through tagged, which embeds base

type tagged struct{ base }

// Type-parameter calls.

type box struct{}

func measure[T interface{ size() int }](v T) int { return v.size() }

func (box) size() int { return 1 }

func (box) weight() int { return 2 } // want "\\(fix/dcmain.box\\).weight is unreachable"

// Generic interfaces.

type getter[T any] interface{ get() T }

func fetch[T any](g getter[T]) T { return g.get() }

type cell struct{}

func (cell) get() int { return 5 }

func (cell) put(int) {} // want "\\(fix/dcmain.cell\\).put is unreachable"

type machine[M any] interface {
	Step(M)
	Tick()
	Drain() []M
}

func drive[M any](m machine[M]) {
	for _, msg := range m.Drain() {
		m.Step(msg)
	}
	m.Tick()
}

// outbox's Drain is reached as replica's: replica implements
// machine[int] with the Drain its embedded outbox[int] promotes.
type outbox[M any] struct{ out []M }

func (o *outbox[M]) Drain() []M { return o.out }

type replica struct{ outbox[int] }

func (*replica) Step(int) {}

func (*replica) Tick() {}

func (*replica) Frontier() int { return 0 }

// stepper has machine's Step but not its Tick, so no call through a
// machine reaches it.
type stepper struct{}

func (stepper) Step(int) {} // want "\\(fix/dcmain.stepper\\).Step is unreachable"

// A constraint written in place over its declaration's type parameters
// has no instance to test; a type implements it when every method
// matches once those parameters are bound.
type frontiers[M any, N interface {
	machine[M]
	Frontier() int
}] struct{ nodes []N }

func lowest[M any, N interface {
	machine[M]
	Frontier() int
}](f frontiers[M, N]) int {
	low := 0
	for _, n := range f.nodes {
		low = min(low, n.Frontier())
	}
	return low
}

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
