package minbft

import (
	"fmt"
	"math"
	"testing"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/types"
)

func val(s string) types.Value { return types.Value(s) }

func TestMergeKeepsEachSlotsHighestViewAtItsNumber(t *testing.T) {
	exec, entries := Reports{
		2: {Executed: 5, Entries: []Entry{{Seq: 6, View: 1, Req: val("stale")}, {Seq: 7, View: 3, Req: val("b")}}},
		0: {Executed: 6, Entries: []Entry{{Seq: 7, View: 2, Req: val("older")}, {Seq: 9, View: 2, Req: val("d")}}},
		1: {Executed: 4, Entries: []Entry{{Seq: 9, View: 2, Req: val("tie")}}},
	}.Merge(4)
	if exec != 6 {
		t.Fatalf("merged frontier %d, want the highest reported, 6", exec)
	}
	// Slot 6 is under the frontier; 7 goes to view 3 over view 2; 9's
	// tie in view 2 goes to the lowest sender; 8 stays a hole, never
	// renumbered into.
	if got := fmt.Sprint(entries); got != fmt.Sprint([]Entry{{Seq: 7, View: 3, Req: val("b")}, {Seq: 9, View: 2, Req: val("d")}}) {
		t.Fatalf("merged entries %v", entries)
	}
}

func TestMergeIgnoresAViewTagAtOrPastTheViewInstalled(t *testing.T) {
	// Replica 0 holds slot 1 from view 0; replica 1 claims other requests
	// there under view MaxUint64 and under the view being installed, 1.
	// No correct replica reports an entry tagged with a view it has not
	// reached, so neither claim may outrank the real one.
	for _, forged := range []types.View{math.MaxUint64, 1} {
		_, entries := Reports{
			0: {Entries: []Entry{{Seq: 1, View: 0, Req: val("real")}}},
			1: {Entries: []Entry{{Seq: 1, View: forged, Req: val("forged")}, {Seq: 2, View: forged, Req: val("forged")}}},
		}.Merge(1)
		if got := fmt.Sprint(entries); got != fmt.Sprint([]Entry{{Seq: 1, View: 0, Req: val("real")}}) {
			t.Fatalf("view %d: merged entries %v", forged, entries)
		}
	}
}

func TestInstallKeepsSurvivorsAtTheirSlotsAndNumbersPastThem(t *testing.T) {
	c := NewCore(1)
	for i := 1; i <= 5; i++ {
		r := val(fmt.Sprint("r", i))
		seq, d, _ := c.Propose(r, 0)
		c.Commit(seq, r, d, 0, 0, 1)
	}
	c.Accept(6, val("uncommitted"), chaincrypto.Hash(val("uncommitted")), 0)
	if props := c.Install(1, 7, []Entry{{Seq: 9, View: 0, Req: val("survivor")}}, false); props != nil {
		t.Fatalf("a backup owes no proposals, got %v", props)
	}

	if c.ExecutedFrontier() != 5 {
		t.Fatalf("executed %d, want 5", c.ExecutedFrontier())
	}
	if got := fmt.Sprintf("%q", c.Pending()); got != `["uncommitted" "survivor"]` && got != `["survivor" "uncommitted"]` {
		t.Fatalf("pending %s: the dropped slot's request and the survivor must both wait", got)
	}
	seq, _, ok := c.Propose(val("fresh"), 1)
	if !ok || seq != 10 {
		t.Fatalf("fresh proposal at %d (ok %v), want 10: past the merged frontier 7 and the survivor at 9", seq, ok)
	}
	if _, _, ok := c.Propose(val("survivor"), 1); ok {
		t.Fatal("survivor proposed a second time")
	}
	// Behind the merged frontier, the report claims it, not execution:
	// slot 6 was dropped here, and reporting 5 would let a later merge
	// hand decided slots 6 and 7 out again.
	rep := c.Report()
	if rep.Executed != 7 || fmt.Sprint(rep.Entries) != fmt.Sprint([]Entry{{Seq: 9, View: 1, Req: val("survivor")}, {Seq: 10, View: 1, Req: val("fresh")}}) {
		t.Fatalf("report %+v", rep)
	}
}

func TestInstallHandsTheNewPrimarySurvivorsFirst(t *testing.T) {
	c := NewCore(1)
	c.Pend(val("waiting"))
	props := c.Install(1, 3, []Entry{{Seq: 4, View: 0, Req: val("a")}, {Seq: 5, View: 0, Req: val("b")}}, true)
	var got []string
	for _, e := range props {
		got = append(got, fmt.Sprintf("%d:%s", e.Seq, e.Req))
	}
	// Survivors at their own slots, then the pending request at the first
	// slot past them; the survivors, pending again since their slots are
	// uncommitted, are not numbered a second time.
	if fmt.Sprint(got) != "[4:a 5:b 6:waiting]" {
		t.Fatalf("proposals %v", got)
	}
}
