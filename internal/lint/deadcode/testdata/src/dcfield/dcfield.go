// Package dcfield is the unreadfield fixture: each way a field is
// written beside each way it is read.
package dcfield

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Writes are no reads.
type writes struct {
	assigned int // want "field writes.assigned is never read"
	bumped   int // want "field writes.bumped is never read"
	added    int // want "field writes.added is never read"
	keyed    int // want "field writes.keyed is never read"
	ranged   int // want "field writes.ranged is never read"
	selected int
	viaTest  int // read in dcfield_test.go only
	Tagged   int `json:"tagged"`
	_        int
}

func useWrites(xs []int) int {
	w := writes{keyed: 1}
	w.assigned = 1
	w.bumped++
	w.added += 2
	for _, w.ranged = range xs {
	}
	w.viaTest = 3
	return w.selected
}

// An embedded field is read by a selection whose path passes through
// it, or by a method it promotes.
type inner struct{ depth int }

func (inner) promote() {}

type outer struct {
	inner        // read through o.depth
	hidden       // promotes hide into outer's method set
	unused inner // want "field outer.unused is never read"
}

type hidden struct{}

func (hidden) hide() {}

func useOuter() int {
	var o outer
	o.unused = inner{}
	return o.depth
}

// A struct compared whole, used as a map key, or as a comparable type
// argument has every field read, at any depth.
type compared struct {
	a int
	b nested
}

type nested struct{ c int }

type keyed struct{ k int }

type contained struct{ e int }

func useCompared(x, y compared, ks []contained) bool {
	seen := map[keyed]bool{}
	return x == y && len(seen) == 0 && slices.Contains(ks, contained{e: 1})
}

// A struct handed whole to fmt, encoding/json or encoding/binary has
// every field read by reflection, through pointers and slices too.
type printed struct{ p int }

type marshaled struct{ M []*wire }

type wire struct{ W uint32 }

type written struct{ v uint16 }

func useReflected(w io.Writer) error {
	fmt.Fprintln(w, printed{})
	if _, err := json.Marshal(marshaled{}); err != nil {
		return err
	}
	return binary.Write(w, binary.BigEndian, written{})
}

// A generic struct's field is judged as declared, across instances.
type box[T any] struct {
	val   T
	spare T // want "field box.spare is never read"
}

func useBox() int {
	b := box[int]{spare: 1}
	return b.val
}
