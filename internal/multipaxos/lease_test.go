package multipaxos

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/types"
)

// The read lease (replog's read.go) on Multi-Paxos, and the voting rule
// it rests on: the mirror of raft's lease_test.go, with a Prepare for a
// RequestVote and ballots for terms.

// leased asks lead for read id on its lease and reports whether the
// lease answered it at once, and at which index.
func leased(lead *Node, id uint64) (types.Seq, bool) {
	lead.ReadIndex(id, true)
	for _, rs := range takeReads(lead) {
		if rs.ID == id && !rs.Dropped {
			return rs.Index, true
		}
	}
	return 0, false
}

// A follower that heard from its leader within ElectionTimeoutTicks
// ignores another node's Prepare: no promise, no higher ballot, no
// answer. A Prepare from the node it follows is answered, and once its
// leader has been quiet that long, so is another's.
func TestHeedingFollowerIgnoresAPrepare(t *testing.T) {
	g := newTrio(t)
	g.elect(0, nil)
	f := g.nodes[1]
	ballot := f.ballot
	ask := Message{Kind: MsgPrepare, From: 2, To: 1, Ballot: ballot.Next(2), Slot: f.CommitFrontier()}
	for i := 1; i < f.cfg.ElectionTimeoutTicks; i++ {
		f.Tick()
		f.Step(ask)
		if out := f.Drain(); len(out) != 0 || f.ballot != ballot || f.Leader() != 0 {
			t.Fatalf("%d ticks after its leader: answered %+v, ballot %v (was %v), leader %v", i, out, f.ballot, ballot, f.Leader())
		}
	}
	own := Message{Kind: MsgPrepare, From: 0, To: 1, Ballot: ballot.Next(0), Slot: f.CommitFrontier()}
	if f.Step(own); len(f.Drain()) != 1 || f.ballot != own.Ballot {
		t.Fatalf("its leader's own Prepare went unanswered: ballot %v", f.ballot)
	}
	for i := 0; i < f.cfg.ElectionTimeoutTicks; i++ {
		f.Tick()
	}
	ask.Ballot = f.ballot.Next(2)
	f.Step(ask)
	if out := f.Drain(); len(out) != 1 || out[0].Kind != MsgAck || f.ballot != ask.Ballot {
		t.Fatalf("an election timeout after its leader: answered %+v, ballot %v; want a promise of %v", out, f.ballot, ask.Ballot)
	}
}

// The voting rule survives a restart: raft's
// TestRestoredFollowerKeepsTheVotingRule with a Prepare for the
// RequestVote. Node 1, restored from its journal with its promise but
// no leader, ignores node 2's Prepare for an election timeout from the
// restore, then promises.
func TestRestoredFollowerKeepsTheVotingRule(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	lead.ReadIndex(1, false)
	g.pump(nil)
	if _, ok := leased(lead, 2); !ok {
		t.Fatal("no lease after a round node 1 answered")
	}
	p := openPersister(t, t.TempDir())
	if err := p.Sync(g.nodes[1]); err != nil {
		t.Fatal(err)
	}
	f := New(1, g.nodes[1].cfg)
	if err := p.Restore(f); err != nil {
		t.Fatal(err)
	}
	g.nodes[1] = f
	ballot := f.ballot
	ask := Message{Kind: MsgPrepare, From: 2, To: 1, Ballot: ballot.Next(2), Slot: f.CommitFrontier()}
	for i := 0; i < f.cfg.ElectionTimeoutTicks; i++ {
		f.Step(ask)
		if out := f.Drain(); len(out) != 0 || f.ballot != ballot {
			t.Fatalf("%d ticks after its restore: answered %+v, ballot %v (was %v)", i, out, f.ballot, ballot)
		}
		f.Tick()
	}
	f.Step(ask)
	if out := f.Drain(); len(out) != 1 || out[0].Kind != MsgAck || f.ballot != ask.Ballot {
		t.Fatalf("an election timeout after its restore: answered %+v, ballot %v; want a promise of %v", out, f.ballot, ask.Ballot)
	}
}

// The lease is safe because of the voting rule. Node 0 leads and holds
// the lease on a round its acceptors answered; the link 0–2 is cut, and
// node 2's election timer fires again and again. Node 1 hears node 0
// throughout, so it ignores node 2's Prepares: no node of a higher
// ballot decides while node 0 leads, and every read node 0 answers on
// its lease reflects every acknowledged write. Deleting the rule
// (heeding returning false) fails this test: node 2 wins through node 1
// and decides a write, and node 0's next lease read misses it.
func TestLeaseHoldsAgainstACutOffCandidate(t *testing.T) {
	g := newTrio(t)
	a := g.elect(0, nil)
	c := g.nodes[2]
	cut := func(m Message) bool { return m.From+m.To == 2 && m.From != m.To }
	a.Submit(types.Value("w1"))
	g.pump(nil)
	g.heartbeat(a)
	a.ReadIndex(1, false)
	g.pump(nil)
	if rs := takeReads(a); len(rs) != 1 || rs[0].Dropped {
		t.Fatalf("read 1: %+v, want it confirmed by a round", rs)
	}
	tag := a.Term()

	writes, id, lent := 0, uint64(1), 0
	// check asks node 0 for a lease read after every node that leads
	// under a higher ballot has been given a write: its index must cover
	// every decision anywhere.
	check := func(when string) {
		t.Helper()
		for _, n := range g.nodes {
			if n.IsLeader() && n.Term() > tag {
				writes++
				n.Submit(types.Value(fmt.Sprint("w", writes+1)))
				g.pump(cut)
			}
		}
		for _, n := range g.nodes {
			for i := n.CommitFrontier(); i > n.SnapshotIndex(); i-- {
				if n.At(i).Term > tag && a.IsLeader() {
					t.Errorf("%s: node %v decided slot %d under %v while node 0 leads under %v", when, n.id, i, unpackBallot(n.At(i).Term), a.ballot)
				}
			}
		}
		id++
		if at, ok := leased(a, id); ok {
			lent++
			for _, n := range g.nodes {
				if n.CommitFrontier() > at {
					t.Errorf("%s: node 0 answered read %d on its lease at slot %d; node %v has decided %d", when, id, at, n.id, n.CommitFrontier())
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		g.pump(cut)
	}
	check("before the cut")
	if lent != 1 {
		t.Fatal("node 0 answered no read on its lease after a round its acceptors answered")
	}

	for c.role == follower {
		c.Tick()
	}
	g.pump(cut)
	check("after node 2's first campaign")
	for i := 0; i < 4*a.cfg.ElectionTimeoutTicks; i++ {
		for _, n := range g.nodes {
			n.Tick()
		}
		g.pump(cut)
		check(fmt.Sprintf("tick %d", i))
	}
	if !a.IsLeader() || !a.ballot.Less(c.ballot) || lent < a.cfg.ElectionTimeoutTicks {
		t.Fatalf("node 0 leads: %v under %v, node 2 at %v, %d reads answered on the lease", a.IsLeader(), a.ballot, c.ballot, lent)
	}
}
