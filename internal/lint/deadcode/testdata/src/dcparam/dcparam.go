// Package dcparam is the unusedparam fixture: a parameter no body
// reads is a finding, unless an interface, a constraint or a func-typed
// use fixes the signature.
package dcparam

func unread(a, b int) int { return a } // want "parameter b of fix/dcparam.unread is never read"

func blank(a, _ int) int { return a }

type box struct{}

func (box) resize(w, h int) int { return w } // want "parameter h of \\(fix/dcparam.box\\).resize is never read"

// An interface fixes area's signature.
type shape interface{ area(scale int) int }

func (box) area(scale int) int { return 1 }

// A constraint fixes weight's.
func measure[T interface{ weight(unit int) int }](v T) int { return v.weight(1) }

func (box) weight(unit int) int { return 3 }

// A func-typed field fixes onFrame's, as a func-typed argument fixes
// visit's.
type hooks struct{ onFrame func(from, size int) int }

func onFrame(from, size int) int { return size }

var h = hooks{onFrame: onFrame}

func each(f func(i, v int)) { f(0, 1) }

func visit(i, v int) { _ = v }

func Use() int {
	var s shape = box{}
	each(visit)
	return unread(1, 2) + blank(1, 2) + box{}.resize(1, 2) + s.area(2) + measure(box{}) + h.onFrame(1, 2)
}
