package raft

import (
	"testing"

	"fortyconsensus/internal/types"
)

// ReadIndex driven by hand, over flow_test.go's trio: node 0 leads nodes
// 1 and 2, and a read needs one follower's answer to confirm.

// probes returns the read probes in sent, and whom they went to.
func probes(sent []Message) (to []types.NodeID) {
	for _, m := range sent {
		if m.Kind == MsgRead {
			to = append(to, m.To)
		}
	}
	return to
}

// takeReads copies what TakeReads returns (valid until the next step).
func takeReads(n *Node) []types.ReadState {
	return append([]types.ReadState(nil), n.TakeReads()...)
}

func TestReadNeedsAQuorumOfAnswersToARoundIssuedAfterIt(t *testing.T) {
	g := newTrio(t)
	g.lead.ReadIndex(1)
	out := g.lead.Drain()
	if to := probes(out); len(out) != 1 || len(to) != 1 || to[0] != 1 {
		t.Fatalf("read 1 sent %+v, want one probe, to node 1: a majority of three is the leader and one follower", out)
	}
	if rs := g.lead.TakeReads(); len(rs) != 0 {
		t.Fatalf("confirmed with no answer: %+v", rs)
	}
	g.nodes[1].Step(out[0])
	answer := g.nodes[1].Drain()[0]

	// Read 2 arrives while read 1's answer is on its way: that answer is to
	// a round issued before read 2, and confirms read 1 only.
	g.lead.ReadIndex(2)
	probe2 := g.lead.Drain()[0]
	g.lead.Step(answer)
	if rs := takeReads(g.lead); len(rs) != 1 || rs[0] != (types.ReadState{ID: 1, Index: g.lead.CommitFrontier()}) {
		t.Fatalf("after the answer to read 1's round: %+v, want read 1 confirmed at the commit index", rs)
	}
	g.nodes[1].Step(probe2)
	g.lead.Step(g.nodes[1].Drain()[0])
	if rs := takeReads(g.lead); len(rs) != 1 || rs[0].ID != 2 || rs[0].Dropped {
		t.Fatalf("after the answer to read 2's round: %+v", rs)
	}
}

func TestReadAnswersUnderAnOlderTermNeverCount(t *testing.T) {
	g := newTrio(t)
	g.lead.ReadIndex(1)
	probe := g.lead.Drain()[0]
	for _, from := range []types.NodeID{1, 2} {
		g.lead.Step(Message{Kind: MsgReadResp, From: from, To: 0, Term: g.lead.Term() - 1, Read: probe.Read})
	}
	if rs := g.lead.TakeReads(); len(rs) != 0 {
		t.Fatalf("answers from an older term confirmed %+v", rs)
	}
	// Node 1 has moved on to a higher term: its answer carries it, and the
	// leader steps down with the read unconfirmed.
	for g.nodes[1].role == follower {
		g.nodes[1].Tick()
	}
	g.nodes[1].Drain() // its vote requests are lost
	g.nodes[1].Step(probe)
	g.lead.Step(g.nodes[1].Drain()[0])
	if rs := takeReads(g.lead); g.lead.IsLeader() || len(rs) != 1 || !rs[0].Dropped {
		t.Fatalf("after an answer from a higher term: leading %v, reads %+v; want stepped down, read 1 dropped", g.lead.IsLeader(), rs)
	}
}

func TestCutOffLeaderNeverConfirmsAndDropsTheReadWhenItStepsDown(t *testing.T) {
	g := newTrio(t)
	cut := func(m Message) bool { return m.From == 0 || m.To == 0 }
	g.lead.ReadIndex(1)
	for i := 0; i < 10*g.lead.cfg.HeartbeatTicks; i++ {
		g.lead.Tick()
		g.pump(cut)
		if rs := g.lead.TakeReads(); len(rs) != 0 {
			t.Fatalf("tick %d: a leader no follower hears confirmed %+v", i, rs)
		}
	}
	for i := 0; i < 500 && !g.nodes[1].IsLeader() && !g.nodes[2].IsLeader(); i++ {
		g.nodes[1].Tick()
		g.nodes[2].Tick()
		g.pump(cut)
	}
	if !g.nodes[1].IsLeader() && !g.nodes[2].IsLeader() {
		t.Fatal("the majority side elected nobody")
	}
	g.heartbeat() // the old leader's own heartbeat meets the new term
	if rs := takeReads(g.lead); g.lead.IsLeader() || len(rs) != 1 || rs[0] != (types.ReadState{ID: 1, Dropped: true}) {
		t.Fatalf("healed: leading %v, reads %+v; want stepped down, read 1 dropped", g.lead.IsLeader(), rs)
	}
}

// The probe goes to the follower that answered the newest round, node 1
// on a tie. With node 1 gone the heartbeat re-asks every follower that
// has not answered; node 2 does within the interval, and the next read
// goes to node 2 alone.
func TestThriftyProbeFallsBackToTheHeartbeat(t *testing.T) {
	g := newTrio(t)
	down := func(m Message) bool { return m.From == 1 || m.To == 1 }
	g.lead.ReadIndex(1)
	if to := probes(g.pump(down)); len(to) != 1 || to[0] != 1 {
		t.Fatalf("first probe went to %v, want [1]", to)
	}
	confirmedAt := 0
	for tick := 1; tick <= g.lead.cfg.HeartbeatTicks+1 && confirmedAt == 0; tick++ {
		g.lead.Tick()
		g.pump(down)
		if rs := g.lead.TakeReads(); len(rs) == 1 && !rs[0].Dropped {
			confirmedAt = tick
		}
	}
	if confirmedAt == 0 {
		t.Fatalf("read 1 not confirmed within HeartbeatTicks+1 = %d ticks of node 1 going silent", g.lead.cfg.HeartbeatTicks+1)
	}
	// The heartbeat re-asked both followers: neither had answered.
	if probes, reasked := g.lead.ReadStats(); probes != 3 || reasked != 1 {
		t.Fatalf("read stats: %d probes, %d re-asked reads; want 3 and 1", probes, reasked)
	}
	g.lead.ReadIndex(2)
	if to := probes(g.pump(down)); len(to) != 1 || to[0] != 2 {
		t.Fatalf("second read probed %v, want [2]: node 2 answered the newest round", to)
	}
	if rs := g.lead.TakeReads(); len(rs) != 1 || rs[0].ID != 2 {
		t.Fatalf("read 2: %+v", rs)
	}
}

// A new leader's commit index may stand below entries a previous leader
// acknowledged; its no-op commits past them. A read waits for that.
func TestReadWaitsForTheLeadersFirstCommit(t *testing.T) {
	g := &trio{tb: t}
	for i := range g.nodes {
		g.nodes[i] = New(types.NodeID(i), Config{Peers: []types.NodeID{0, 1, 2}, Seed: 31})
	}
	g.lead = g.nodes[0]
	for g.lead.role == follower {
		g.lead.Tick()
	}
	appends := func(m Message) bool { return m.Kind == MsgAppend }
	g.pump(appends)
	if !g.lead.IsLeader() || g.lead.CommitFrontier() != 0 {
		t.Fatalf("setup: leading %v, commit %d", g.lead.IsLeader(), g.lead.CommitFrontier())
	}
	g.lead.ReadIndex(1)
	if to := probes(g.pump(appends)); len(to) != 1 {
		t.Fatalf("probes %v", to)
	}
	if rs := g.lead.TakeReads(); len(rs) != 0 {
		t.Fatalf("confirmed before the no-op committed: %+v", rs)
	}
	g.heartbeat()
	if rs := takeReads(g.lead); g.lead.CommitFrontier() != 1 || len(rs) != 1 || rs[0] != (types.ReadState{ID: 1, Index: 1}) {
		t.Fatalf("after the no-op committed (commit %d): %+v, want read 1 at index 1", g.lead.CommitFrontier(), rs)
	}
}

// With nobody else to ask, a read confirms in the call that makes it.
func TestSingleNodeReadSendsNothing(t *testing.T) {
	n := New(0, Config{Peers: []types.NodeID{0}})
	for !n.IsLeader() {
		n.Tick()
	}
	n.Drain()
	n.ReadIndex(1)
	if out := n.Drain(); len(out) != 0 {
		t.Fatalf("a one-node group sent %+v", out)
	}
	if rs := n.TakeReads(); len(rs) != 1 || rs[0] != (types.ReadState{ID: 1, Index: 1}) {
		t.Fatalf("reads %+v, want read 1 at index 1", rs)
	}
}

// A node that does not lead drops a read at once.
func TestFollowerDropsAReadAtOnce(t *testing.T) {
	g := newTrio(t)
	g.nodes[1].ReadIndex(9)
	if rs := g.nodes[1].TakeReads(); len(rs) != 1 || rs[0] != (types.ReadState{ID: 9, Dropped: true}) {
		t.Fatalf("follower: %+v", rs)
	}
}

// Drain's slice is valid until the next Drain: stepping the node between
// two Drains writes into the other buffer, never the one handed out.
func TestDrainedMessagesSurviveTheNextStep(t *testing.T) {
	g := newTrio(t)
	g.lead.Submit(types.Value("a"))
	out := g.lead.Drain()
	held := append([]Message(nil), out...)
	g.lead.Submit(types.Value("b"))
	g.lead.ReadIndex(1)
	for i := range out {
		if out[i].Kind != held[i].Kind || out[i].To != held[i].To || len(out[i].Entries) != len(held[i].Entries) ||
			!out[i].Entries[0].Val.Equal(held[i].Entries[0].Val) {
			t.Fatalf("message %d changed under a step: %+v, was %+v", i, out[i], held[i])
		}
	}
	next := g.lead.Drain()
	if len(next) != 3 || &next[0] == &out[0] {
		t.Fatalf("second drain: %d messages, sharing the first's buffer %v", len(next), &next[0] == &out[0])
	}
}

// An append carries the newest round, so its ack answers it: with the
// probe lost, a write that leaves after the read confirms it.
func TestAnAckToALaterAppendConfirmsARead(t *testing.T) {
	g := newTrio(t)
	g.lead.ReadIndex(1)
	g.lead.Drain() // the probe to node 1 is lost
	g.lead.Submit(types.Value("w"))
	g.pump(func(m Message) bool { return m.To == 1 || m.From == 1 })
	if rs := g.lead.TakeReads(); len(rs) != 1 || rs[0].ID != 1 || rs[0].Dropped {
		t.Fatalf("after node 2 acked an append sent after the read: %+v", rs)
	}
}
