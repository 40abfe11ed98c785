package types

import (
	"slices"
	"testing"
)

func TestOutboxDrainsInPostOrder(t *testing.T) {
	var o Outbox[int]
	if got := o.Drain(); len(got) != 0 {
		t.Fatalf("empty outbox drained %v", got)
	}
	for i := range 5 {
		o.Post(i)
	}
	if got := o.Drain(); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("Drain = %v, want posting order", got)
	}
	o.Post(7)
	o.Post(3)
	if got := o.Drain(); !slices.Equal(got, []int{7, 3}) {
		t.Fatalf("second Drain = %v, want [7 3]", got)
	}
}

func TestOutboxSteadyCycleAllocatesNothing(t *testing.T) {
	var o Outbox[Decision]
	cycle := func() {
		for i := range 8 {
			o.Post(Decision{Slot: Seq(i)})
		}
		o.Drain()
	}
	cycle()
	cycle() // both buffers have grown to a cycle's output
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a steady Post/Drain cycle allocates %v times", n)
	}
}

func TestDrainedSliceValidUntilNextDrain(t *testing.T) {
	var o Outbox[Value]
	o.Post(Value("a"))
	o.Post(Value("b"))
	held := o.Drain()
	o.Post(Value("c")) // posting after a Drain leaves what it handed out alone
	if len(held) != 2 || string(held[0]) != "a" || string(held[1]) != "b" {
		t.Fatalf("drained slice changed before the next Drain: %q", held)
	}
	next := o.Drain()
	if len(next) != 1 || string(next[0]) != "c" {
		t.Fatalf("second Drain = %q, want [c]", next)
	}
	if held[0] != nil {
		t.Fatalf("the next Drain left the earlier slice's messages reachable: %q", held)
	}
}

func TestDecisionsTakeInSlotOrder(t *testing.T) {
	var d Decisions
	d.Decide(1, Value("x"))
	d.Decide(2, Value("y"))
	if got := d.Decided(); len(got) != 2 || got[1].Slot != 2 {
		t.Fatalf("Decided = %v, want both", got)
	}
	if got := d.TakeDecisions(); len(got) != 2 || got[0].Slot != 1 || string(got[1].Val) != "y" {
		t.Fatalf("TakeDecisions = %v", got)
	}
	if got := d.TakeDecisions(); got != nil {
		t.Fatalf("second TakeDecisions = %v, want nil", got)
	}
}
