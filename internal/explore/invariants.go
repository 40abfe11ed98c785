package explore

import (
	"fmt"

	"fortyconsensus/internal/types"
)

// This file is the shared invariant suite. Each helper reports the
// *first* violation it sees and keeps reporting it — a campaign stops
// the episode at the first failed check, and the shrinker only needs
// "violates or not", so latching is enough.

// CheckSingleValue verifies single-value agreement over per-node
// decided values (nil = undecided): no two decided nodes may hold
// different values. Returns nil while agreement holds.
func CheckSingleValue(vals []types.Value) *Violation {
	first := -1
	for i, v := range vals {
		if v == nil {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		if !vals[first].Equal(v) {
			return &Violation{
				Invariant: "single-value-agreement",
				Detail: fmt.Sprintf("node %d decided %q, node %d decided %q",
					first, vals[first], i, v),
			}
		}
	}
	return nil
}

// LogTracker checks log-prefix agreement over streams of committed
// decisions: every node's committed sequence must be an ordered stream
// of strictly increasing slots, and all nodes must agree on the value
// of every slot. The first committed value for a slot becomes canonical;
// later commits of that slot anywhere must match it.
type LogTracker struct {
	canonical map[types.Seq]types.Value
	lastSlot  []types.Seq // highest committed slot per node
	count     []int       // committed decisions per node
	fp        uint64      // rolling fingerprint over (node, slot, value)
	violation *Violation
}

// NewLogTracker tracks n nodes.
func NewLogTracker(n int) *LogTracker {
	return &LogTracker{
		canonical: make(map[types.Seq]types.Value),
		lastSlot:  make([]types.Seq, n),
		count:     make([]int, n),
		fp:        fnvOffset,
	}
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvMix(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvMixUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvMix(h, byte(v>>(8*i)))
	}
	return h
}

// Observe feeds node's freshly drained decisions (as returned by
// TakeDecisions: in commit order) into the tracker.
func (t *LogTracker) Observe(node int, ds []types.Decision) {
	for _, d := range ds {
		if t.violation != nil {
			return
		}
		if d.Slot <= t.lastSlot[node] {
			t.violation = &Violation{
				Invariant: "local-commit-order",
				Detail: fmt.Sprintf("node %d committed slot %d after slot %d",
					node, d.Slot, t.lastSlot[node]),
			}
			return
		}
		t.lastSlot[node] = d.Slot
		t.count[node]++
		if v, ok := t.canonical[d.Slot]; ok {
			if !v.Equal(d.Val) {
				t.violation = &Violation{
					Invariant: "log-prefix-agreement",
					Detail: fmt.Sprintf("slot %d: node %d committed %q, canonical is %q",
						d.Slot, node, d.Val, v),
				}
				return
			}
		} else {
			t.canonical[d.Slot] = d.Val.Clone()
		}
		t.fp = fnvMixUint(t.fp, uint64(node))
		t.fp = fnvMixUint(t.fp, uint64(d.Slot))
		for _, b := range d.Val {
			t.fp = fnvMix(t.fp, b)
		}
	}
}

// Reset forgets node's local commit cursor (not the canonical log):
// a member replaced by a fresh, stateless instance legitimately
// re-commits from the start, and every re-committed slot is still
// checked against the canonical value.
func (t *LogTracker) Reset(node int) {
	t.lastSlot[node] = 0
	t.count[node] = 0
}

// Violation returns the latched violation, nil while all checks hold.
func (t *LogTracker) Violation() *Violation { return t.violation }

// Fingerprint returns a compact digest of everything observed so far.
func (t *LogTracker) Fingerprint() string { return fmt.Sprintf("%016x", t.fp) }

// MinCount returns the smallest per-node committed-decision count —
// zero means some node committed nothing.
func (t *LogTracker) MinCount() int {
	min := int(^uint(0) >> 1)
	for _, c := range t.count {
		if c < min {
			min = c
		}
	}
	return min
}
