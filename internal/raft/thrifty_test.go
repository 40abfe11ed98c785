package raft

import (
	"testing"

	"fortyconsensus/internal/types"
)

// Phase 2 goes to a quorum: Submit sends a new entry to the
// Threshold()−1 followers that acknowledged most, and the tick sends
// every other follower what it has not been sent.

// The heartbeat rewinds only what has had a whole tick to be
// acknowledged: an append that left in the heartbeat's own tick is in
// flight, not lost.
func TestHeartbeatDoesNotResendAnAppendInFlight(t *testing.T) {
	g := newTrio(t)
	// Node 1 probing — a reject of a frame past its log makes it one: a
	// submit reaches only node 2, which no longer pushes the heartbeat
	// back.
	last := g.lead.LastIndex()
	g.lead.Step(Message{Kind: MsgAppendResp, From: 1, To: 0, Term: g.lead.term, PrevIndex: last + 1, MatchIndex: last})
	probe := g.lead.Drain()
	if len(probe) != 1 || probe[0].To != 1 || probe[0].PrevIndex != last || len(probe[0].Entries) != 0 {
		t.Fatalf("the reject was answered with %+v, want one empty probe of node 1 at %d", probe, last)
	}
	g.nodes[1].Step(probe[0])
	g.pump(nil)
	// Tick to the heartbeat, the tick that sends idle node 2 an append,
	// and on to the tick before the next one.
	for beat := false; !beat; {
		g.lead.Tick()
		for _, m := range g.pump(nil) {
			beat = beat || (m.Kind == MsgAppend && m.To == 2)
		}
	}
	for i := 1; i < g.lead.cfg.HeartbeatTicks; i++ {
		g.lead.Tick()
	}
	g.pump(nil)
	g.lead.Submit(types.Value("x"))
	idx := g.lead.LastIndex()
	g.lead.Tick() // the heartbeat, in the tick the append to node 2 left
	if n := entriesTo(g.lead.Drain(), 2)[idx]; n != 1 {
		t.Fatalf("entry %d went to node 2 %d times before its ack could return, want 1", idx, n)
	}
}

// A pick that has gone silent delays a commit by one tick: the tick
// sends the other follower the entry, its ack commits it, and from then
// on that follower, now ahead, is the pick.
func TestStalledPickDelaysACommitByAtMostOneTick(t *testing.T) {
	g := newTrio(t)
	silent := func(m Message) bool { return m.To == 2 || m.From == 2 }
	g.burst(1)
	g.pump(silent)
	want := g.lead.LastIndex()
	if g.lead.CommitFrontier() == want {
		t.Fatal("committed with the pick silent and nothing sent to node 1")
	}
	g.lead.Tick()
	g.pump(silent)
	if got := g.lead.CommitFrontier(); got != want {
		t.Fatalf("one tick later the commit is %d, want %d", got, want)
	}
	g.burst(1)
	g.pump(silent)
	if got := g.lead.CommitFrontier(); got != g.lead.LastIndex() {
		t.Fatalf("the next submit committed %d of %d without a tick: node 1 is not the pick", got, g.lead.LastIndex())
	}
}

// Every follower holds every entry one tick after its submit, in a
// trio and in a group of five (two picks, two followers fed by the
// tick), and the tick sends each lagging follower one append.
func TestEveryFollowerHoldsEveryEntryWithinOneTick(t *testing.T) {
	for _, size := range []int{3, 5} {
		g := newGroup(t, size)
		for round := 1; round <= 20; round++ {
			g.burst(round % 4)
			g.pump(nil)
			g.lead.Tick()
			appends := 0
			for _, m := range g.pump(nil) {
				if m.Kind == MsgAppend && len(m.Entries) > 0 {
					appends++
				}
			}
			if want := size - g.lead.q.Threshold(); round%4 > 0 && appends != want {
				t.Fatalf("%d nodes, round %d: the tick sent %d appends, want one to each of %d lagging followers", size, round, appends, want)
			}
			for _, n := range g.nodes {
				if n.LastIndex() != g.lead.LastIndex() {
					t.Fatalf("%d nodes, round %d: node %v holds %d of %d a tick after the submits", size, round, n.id, n.LastIndex(), g.lead.LastIndex())
				}
			}
		}
	}
}

// A single node sends nothing at submit: it has nobody to ask.
func TestSingleNodeSubmitSendsNothing(t *testing.T) {
	n := soloLeader(t, 0)
	n.Submit(types.Value("x"))
	n.Tick()
	if out := n.Drain(); len(out) != 0 || n.CommitFrontier() != n.LastIndex() {
		t.Fatalf("single node sent %+v and committed %d of %d", out, n.CommitFrontier(), n.LastIndex())
	}
}

// With a compaction on every node every tick, no follower that
// acknowledges within the tick is sent a snapshot. Each round the pick's
// acks commit a burst node 1 was not sent, every node compacts through
// its commit index, and the tick comes while what the leader's Compact
// sent node 1 is still on its way: without that flush node 1 would need
// entries compacted away, and a heartbeat that rewound the flush would
// ask for them again.
func TestCompactionEveryTickSendsNoSnapshotToALiveFollower(t *testing.T) {
	g := newTrio(t)
	snaps := 0
	count := func(sent []Message) {
		for _, m := range sent {
			if m.Kind == MsgSnap {
				snaps++
			}
		}
	}
	for round := 0; round < 4*g.lead.cfg.HeartbeatTicks; round++ {
		g.burst(1 + round%3)
		g.pump(nil)
		for _, n := range g.nodes {
			n.Compact(n.CommitFrontier(), []byte("state"))
		}
		held := g.lead.Drain()
		g.lead.Tick()
		for _, m := range held {
			g.nodes[m.To].Step(m)
		}
		count(held)
		count(g.pump(nil))
	}
	if g.lead.SnapshotIndex() < 20 {
		t.Fatalf("the leader compacted only through %d", g.lead.SnapshotIndex())
	}
	if snaps != 0 {
		t.Fatalf("%d snapshot chunks sent to followers that acknowledge every tick", snaps)
	}
	g.replicated()
}
