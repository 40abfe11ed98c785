package raft

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/types"
)

// The read lease (replog's read.go) and the voting rule it rests on,
// driven by hand over flow_test.go's trio: node 0 leads nodes 1 and 2.

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
// ignores another node's RequestVote: it keeps its term and its vote,
// and answers nothing. Once its leader has been quiet that long, the
// same request is answered.
func TestHeedingFollowerIgnoresARequestVote(t *testing.T) {
	g := newTrio(t)
	f := g.nodes[1]
	term, voted := f.term, f.votedFor
	ask := Message{Kind: MsgRequestVote, From: 2, To: 1, Term: term + 1, LastLogIndex: f.LastIndex(), LastLogTerm: f.lastTerm()}
	for i := 1; i < f.cfg.ElectionTimeoutTicks; i++ {
		f.Tick()
		f.Step(ask)
		if out := f.Drain(); len(out) != 0 || f.term != term || f.votedFor != voted || f.Leader() != 0 {
			t.Fatalf("%d ticks after its leader: answered %+v, term %d (was %d), voted %v (was %v), leader %v", i, out, f.term, term, f.votedFor, voted, f.Leader())
		}
	}
	f.Tick()
	f.Step(ask)
	if out := f.Drain(); len(out) != 1 || !out[0].Granted || f.term != term+1 || f.votedFor != 2 {
		t.Fatalf("an election timeout after its leader: answered %+v, term %d, voted %v; want the vote granted at term %d", out, f.term, f.votedFor, term+1)
	}
}

// The voting rule survives a restart. Node 1 answers node 0's round,
// goes down and is restored from its journal, which holds its term but
// no leader: for an election timeout from the restore it still ignores
// node 2's RequestVote, since node 0's lease may rest on its answer. Had
// the restore left the rule's clock run out, as New does, node 1 would
// grant the vote at once and node 2 could win while node 0 lends reads.
func TestRestoredFollowerKeepsTheVotingRule(t *testing.T) {
	g := newTrio(t)
	g.lead.ReadIndex(1, false)
	g.pump(nil)
	if _, ok := leased(g.lead, 2); !ok {
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
	term, voted := f.term, f.votedFor
	ask := Message{Kind: MsgRequestVote, From: 2, To: 1, Term: term + 1, LastLogIndex: f.LastIndex(), LastLogTerm: f.lastTerm()}
	for i := 0; i < f.cfg.ElectionTimeoutTicks; i++ {
		f.Step(ask)
		if out := f.Drain(); len(out) != 0 || f.term != term || f.votedFor != voted {
			t.Fatalf("%d ticks after its restore: answered %+v, term %d (was %d), voted %v (was %v)", i, out, f.term, term, f.votedFor, voted)
		}
		f.Tick()
	}
	f.Step(ask)
	if out := f.Drain(); len(out) != 1 || !out[0].Granted || f.term != term+1 || f.votedFor != 2 {
		t.Fatalf("an election timeout after its restore: answered %+v, term %d, voted %v; want the vote granted at term %d", out, f.term, f.votedFor, term+1)
	}
}

// The lease is safe because of the voting rule. Node 0 leads and holds
// the lease on a round its followers answered; the link 0–2 is cut, and
// node 2's election timer fires again and again. Node 1 hears node 0
// throughout, so it ignores node 2: no node of a higher term commits
// while node 0 leads, and every read node 0 answers on its lease
// reflects every acknowledged write. Deleting the rule (heeding
// returning false) fails this test: node 2 wins through node 1 and
// commits a write, and node 0's next lease read misses it.
func TestLeaseHoldsAgainstACutOffCandidate(t *testing.T) {
	g := newTrio(t)
	a, c := g.lead, g.nodes[2]
	cut := func(m Message) bool { return m.From+m.To == 2 && m.From != m.To }
	g.lead.Submit(types.Value("w1"))
	g.pump(nil)
	g.heartbeat()
	a.ReadIndex(1, false)
	g.pump(nil)
	if rs := takeReads(a); len(rs) != 1 || rs[0].Dropped {
		t.Fatalf("read 1: %+v, want it confirmed by a round", rs)
	}

	writes, id, lent := 0, uint64(1), 0
	// check asks node 0 for a lease read after every node that leads in a
	// higher term has been given a write: its index must cover every
	// commit anywhere.
	check := func(when string) {
		t.Helper()
		for _, n := range g.nodes {
			if n.IsLeader() && n.term > a.term {
				writes++
				n.Submit(types.Value(fmt.Sprint("w", writes+1)))
				g.pump(cut)
			}
		}
		for _, n := range g.nodes {
			for i := n.CommitFrontier(); i > 0 && i > n.SnapshotIndex(); i-- {
				if Term(n.At(i).Term) > a.term && a.IsLeader() {
					t.Errorf("%s: node %v committed index %d of term %d while node 0 leads term %d", when, n.id, i, n.At(i).Term, a.term)
				}
			}
		}
		id++
		if at, ok := leased(a, id); ok {
			lent++
			for _, n := range g.nodes {
				if n.CommitFrontier() > at {
					t.Errorf("%s: node 0 answered read %d on its lease at index %d; node %v has committed %d", when, id, at, n.id, n.CommitFrontier())
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
		t.Fatal("node 0 answered no read on its lease after a round its followers answered")
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
	if !a.IsLeader() || c.term <= a.term || lent < a.cfg.ElectionTimeoutTicks {
		t.Fatalf("node 0 leads: %v at term %d, node 2 at term %d, %d reads answered on the lease", a.IsLeader(), a.term, c.term, lent)
	}
}

// Only a round of the leader's current term counts toward the lease.
// Node 0 issues a round, loses its leadership, and leads again in a
// later term; its no-op's appends carry the old round, and their acks
// echo it under the new term. That renews nothing: the first lease read
// of the new term takes a round, and only that round's answer lends.
func TestLeaseCountsOnlyRoundsOfTheCurrentTerm(t *testing.T) {
	g := newTrio(t)
	a := g.lead
	a.ReadIndex(1, false)
	old := g.pump(nil)[0].Read
	if _, ok := leased(a, 2); !ok {
		t.Fatal("no lease after a round its followers answered")
	}

	a.Step(Message{Kind: MsgAppend, From: 1, To: 0, Term: a.term + 1})
	a.Drain()
	for a.role == follower {
		a.Tick()
	}
	g.pump(nil)
	if !a.IsLeader() || a.CommitFrontier() != a.LastIndex() {
		t.Fatalf("node 0 leads: %v, committed %d of %d", a.IsLeader(), a.CommitFrontier(), a.LastIndex())
	}
	a.Step(Message{Kind: MsgReadResp, From: 1, To: 0, Term: a.term, Read: old})
	a.Step(Message{Kind: MsgReadResp, From: 2, To: 0, Term: a.term, Read: old})
	if _, ok := leased(a, 3); ok {
		t.Fatalf("answers echoing round %d of an earlier term lent a read in term %d", old, a.term)
	}
	if to := probes(g.pump(nil)); len(to) != 1 {
		t.Fatalf("the unleased read sent probes to %v, want one", to)
	}
	if _, ok := leased(a, 4); !ok {
		t.Fatal("no lease after the new term's round was answered")
	}
}

// The lease lasts fewer than ElectionTimeoutTicks/2 of the leader's
// ticks from the round a quorum answered; while it answers reads, each
// heartbeat probes one fresh round, whose answer carries it on. With no
// answer, it lapses, and a read takes a round again.
func TestLeaseLapsesUnlessAHeartbeatRenewsIt(t *testing.T) {
	g := newTrio(t)
	a := g.lead
	a.ReadIndex(1, false)
	g.pump(nil)
	id := uint64(1)
	lease := a.cfg.ElectionTimeoutTicks / 2

	// Answered: every read through many leases is lent, one probe round
	// a heartbeat.
	rounds := 0
	for i := 0; i < 4*lease; i++ {
		id++
		if _, ok := leased(a, id); !ok {
			t.Fatalf("tick %d: a read was not lent while every renewal was answered", i)
		}
		a.Tick()
		sent := g.pump(nil)
		rounds += len(probes(sent))
	}
	if beats := 4 * lease / a.cfg.HeartbeatTicks; rounds != beats {
		t.Fatalf("%d probes over %d heartbeats, want one each", rounds, beats)
	}

	// Unanswered: lent for the rest of the lease, then a round.
	lost := func(Message) bool { return true }
	id++
	leased(a, id)
	for i := 1; ; i++ {
		a.Tick()
		g.pump(lost)
		id++
		if _, ok := leased(a, id); !ok {
			if i > lease {
				t.Fatalf("lent for %d ticks with no answer, want fewer than %d", i, lease)
			}
			return
		}
	}
}

// The lease's length derives from ElectionTimeoutTicks alone, and a
// timeout under 8 ticks leaves too little margin for one: every read
// then takes a round.
func TestNoLeaseUnderEightTicksOfElectionTimeout(t *testing.T) {
	for _, timeout := range []int{7, 8} {
		peers := []types.NodeID{0, 1, 2}
		g := &trio{tb: t}
		for _, id := range peers {
			g.nodes = append(g.nodes, New(id, Config{Peers: peers, Seed: 31, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout, HeartbeatTicks: 2}}))
		}
		g.lead = g.nodes[0]
		for g.lead.role == follower {
			g.lead.Tick()
		}
		g.pump(nil)
		g.heartbeat()
		g.lead.ReadIndex(1, false)
		g.pump(nil)
		if _, ok := leased(g.lead, 2); ok != (timeout >= 8) {
			t.Fatalf("ElectionTimeoutTicks %d: lent %v", timeout, ok)
		}
	}
}
