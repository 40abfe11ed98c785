// Package valuetest is the runtime counterpart of the valueown static
// analyzer: test helpers that pin the types.Value ownership contract
// (DESIGN.md, "Determinism contract") with live bytes instead of
// syntax. The contract has two halves, and the package checks one from
// each side of a handler boundary:
//
//   - a Value is immutable once published. Guard snapshots values at
//     the moment a test observes them inside a message or log entry and
//     Check fails the test if the shared bytes later change — catching
//     any in-place writer no matter which package holds the alias.
//
//   - a batch slice delivered in a message is loaned for the call.
//     Poison overwrites the caller's slice after the handler returns;
//     a handler that copied the elements is unaffected, while one that
//     retained the slice sees its log rewritten under it, which the
//     test's subsequent state assertions catch.
//
// The package is imported only from tests; it depends on testing so
// failures carry positions, like internal/lint/analysistest.
package valuetest

import (
	"bytes"
	"testing"

	"fortyconsensus/internal/types"
)

// Guard records published Values and verifies their bytes never change
// afterwards.
type Guard struct {
	snaps []snapshot
}

// snapshot pairs a live (shared) Value with a private copy of its
// bytes taken at publish time.
type snapshot struct {
	label string
	live  types.Value
	want  []byte
}

// Publish registers v as published under label and returns v unchanged
// so calls can wrap expressions in place. A nil Value is recorded and
// trivially passes.
func (g *Guard) Publish(label string, v types.Value) types.Value {
	g.snaps = append(g.snaps, snapshot{label: label, live: v, want: append([]byte(nil), v...)})
	return v
}

// Check fails t for every published Value whose bytes changed since
// Publish. Call it after the protocol steps that might have written a
// shared backing array in place.
func (g *Guard) Check(t testing.TB) {
	t.Helper()
	for _, s := range g.snaps {
		if !bytes.Equal(s.live, s.want) {
			t.Errorf("published value %s mutated after publish: had %q, now %q", s.label, s.want, s.live)
		}
	}
}

// Poison overwrites every element of batch with p, simulating a sender
// that reuses its buffer after the handler returned. The caller then
// re-asserts the receiver's state: unchanged means the elements were
// copied as the contract requires; changed means the loaned slice was
// retained.
func Poison[E any](batch []E, p E) {
	for i := range batch {
		batch[i] = p
	}
}
