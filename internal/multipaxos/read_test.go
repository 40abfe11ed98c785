package multipaxos

import (
	"testing"

	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

// Reads driven by hand, over decision_test.go's trio: the mirror of
// raft's read_test.go, with ballots for terms and Q2 for the majority.

func probes(sent []Message) (to []types.NodeID) {
	for _, m := range sent {
		if m.Kind == MsgRead {
			to = append(to, m.To)
		}
	}
	return to
}

func takeReads(n *Node) []types.ReadState {
	return append([]types.ReadState(nil), n.TakeReads()...)
}

func TestReadNeedsAQuorumOfAnswersToARoundIssuedAfterIt(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	lead.ReadIndex(1)
	out := lead.Drain()
	if to := probes(out); len(out) != 1 || len(to) != 1 || to[0] != 1 {
		t.Fatalf("read 1 sent %+v, want one probe, to node 1: Q2 of three is the leader and one acceptor", out)
	}
	if rs := lead.TakeReads(); len(rs) != 0 {
		t.Fatalf("confirmed with no answer: %+v", rs)
	}
	g.nodes[1].Step(out[0])
	answer := g.nodes[1].Drain()[0]
	lead.ReadIndex(2)
	probe2 := lead.Drain()[0]
	lead.Step(answer)
	if rs := takeReads(lead); len(rs) != 1 || rs[0] != (types.ReadState{ID: 1, Index: lead.CommitFrontier()}) {
		t.Fatalf("after the answer to read 1's round: %+v, want read 1 confirmed at the frontier", rs)
	}
	g.nodes[1].Step(probe2)
	lead.Step(g.nodes[1].Drain()[0])
	if rs := takeReads(lead); len(rs) != 1 || rs[0].ID != 2 || rs[0].Dropped {
		t.Fatalf("after the answer to read 2's round: %+v", rs)
	}
}

func TestReadAnswersUnderAnOlderBallotNeverCount(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	lead.ReadIndex(1)
	probe := lead.Drain()[0]
	older := types.Ballot{Num: lead.curBallot.Num - 1, Owner: 0}
	for _, from := range []types.NodeID{1, 2} {
		lead.Step(Message{Kind: MsgReadResp, From: from, To: 0, Ballot: older, Read: probe.Read})
	}
	if rs := lead.TakeReads(); len(rs) != 0 {
		t.Fatalf("answers under an older ballot confirmed %+v", rs)
	}
	// Node 1 has promised a higher ballot: it answers the probe with a
	// Nack, and the leader steps down with the read unconfirmed.
	for g.nodes[1].role == follower {
		g.nodes[1].Tick()
	}
	g.nodes[1].Drain() // its prepares are lost
	g.nodes[1].Step(probe)
	lead.Step(g.nodes[1].Drain()[0])
	if rs := takeReads(lead); lead.IsLeader() || len(rs) != 1 || !rs[0].Dropped {
		t.Fatalf("after a Nack: leading %v, reads %+v; want stepped down, read 1 dropped", lead.IsLeader(), rs)
	}
}

func TestCutOffLeaderNeverConfirmsAndDropsTheReadWhenItStepsDown(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	cut := func(m Message) bool { return m.From == 0 || m.To == 0 }
	lead.ReadIndex(1)
	for i := 0; i < 10*lead.cfg.HeartbeatTicks; i++ {
		lead.Tick()
		g.pump(cut)
		if rs := lead.TakeReads(); len(rs) != 0 {
			t.Fatalf("tick %d: a leader no acceptor hears confirmed %+v", i, rs)
		}
	}
	var next *Node
	for i := 0; i < 500 && next == nil; i++ {
		g.nodes[1].Tick()
		g.nodes[2].Tick()
		g.pump(cut)
		for _, n := range g.nodes[1:] {
			if n.IsLeader() {
				next = n
			}
		}
	}
	if next == nil {
		t.Fatal("the Q1 side elected nobody")
	}
	g.heartbeat(next) // the new ballot reaches the old leader
	if rs := takeReads(lead); lead.IsLeader() || len(rs) != 1 || rs[0] != (types.ReadState{ID: 1, Dropped: true}) {
		t.Fatalf("healed: leading %v, reads %+v; want stepped down, read 1 dropped", lead.IsLeader(), rs)
	}
}

func TestThriftyProbeFallsBackToTheHeartbeat(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	down := func(m Message) bool { return m.From == 1 || m.To == 1 }
	lead.ReadIndex(1)
	if to := probes(g.pump(down)); len(to) != 1 || to[0] != 1 {
		t.Fatalf("first probe went to %v, want [1]", to)
	}
	confirmedAt := 0
	for tick := 1; tick <= lead.cfg.HeartbeatTicks+1 && confirmedAt == 0; tick++ {
		lead.Tick()
		g.pump(down)
		if rs := lead.TakeReads(); len(rs) == 1 && !rs[0].Dropped {
			confirmedAt = tick
		}
	}
	if confirmedAt == 0 {
		t.Fatalf("read 1 not confirmed within HeartbeatTicks+1 = %d ticks of node 1 going silent", lead.cfg.HeartbeatTicks+1)
	}
	if probes, reasked := lead.ReadStats(); probes != 3 || reasked != 1 {
		t.Fatalf("read stats: %d probes, %d re-asked reads; want 3 and 1", probes, reasked)
	}
	lead.ReadIndex(2)
	if to := probes(g.pump(down)); len(to) != 1 || to[0] != 2 {
		t.Fatalf("second read probed %v, want [2]: node 2 answered the newest round", to)
	}
	if rs := lead.TakeReads(); len(rs) != 1 || rs[0].ID != 2 {
		t.Fatalf("read 2: %+v", rs)
	}
}

// Node 0 has w accepted at slot 1 by both acceptors and decided
// nowhere; node 1 takes over and recovers it, so its frontier starts
// below a value a client may have been told about. A read waits until
// the re-proposed slot 1 is decided.
func TestReadWaitsForTheSlotsTheLeaderRecovered(t *testing.T) {
	g := newTrio(t)
	old := g.elect(0, nil)
	old.Submit(types.Value("w"))
	g.pump(func(m Message) bool { return m.Kind == MsgAccepted })
	var held []Message
	hold := func(m Message) bool {
		if m.Kind == MsgAccepted {
			held = append(held, m)
			return true
		}
		return false
	}
	lead := g.elect(1, hold)
	if lead.CommitFrontier() != 0 || len(held) == 0 {
		t.Fatalf("setup: frontier %d, %d votes held", lead.CommitFrontier(), len(held))
	}
	lead.ReadIndex(1)
	if to := probes(g.pump(hold)); len(to) != 1 {
		t.Fatalf("probes %v", to)
	}
	if rs := lead.TakeReads(); len(rs) != 0 {
		t.Fatalf("confirmed before the recovered slot was decided: %+v", rs)
	}
	for _, m := range held {
		lead.Step(m)
	}
	if rs := takeReads(lead); lead.CommitFrontier() != 1 || len(rs) != 1 || rs[0] != (types.ReadState{ID: 1, Index: 1}) {
		t.Fatalf("after slot 1 was decided (frontier %d): %+v, want read 1 at 1", lead.CommitFrontier(), rs)
	}
}

// Q2 = 1: the leader's own answer is a replication quorum, so a read
// confirms in the call that makes it. (Q1 = 3 is what pays for that.)
func TestFlexibleQ2OfOneReadSendsNothing(t *testing.T) {
	g := &trio{tb: t}
	peers := []types.NodeID{0, 1, 2}
	for i := range g.nodes {
		g.nodes[i] = New(types.NodeID(i), Config{Peers: peers, Seed: 41, Quorums: quorum.Flexible{N: 3, Q1: 3, Q2: 1}})
	}
	lead := g.elect(0, nil)
	lead.ReadIndex(1)
	if out := lead.Drain(); len(out) != 0 {
		t.Fatalf("Q2 = 1 sent %+v", out)
	}
	if rs := lead.TakeReads(); len(rs) != 1 || rs[0] != (types.ReadState{ID: 1, Index: lead.CommitFrontier()}) {
		t.Fatalf("reads %+v", rs)
	}
}

// Drain's slice is valid until the next Drain: stepping the node between
// two Drains writes into the other buffer, never the one handed out.
func TestDrainedMessagesSurviveTheNextStep(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	lead.Submit(types.Value("a"))
	out := lead.Drain()
	held := append([]Message(nil), out...)
	lead.Submit(types.Value("b"))
	lead.ReadIndex(1)
	for i := range out {
		if out[i].Kind != held[i].Kind || out[i].To != held[i].To || out[i].Slot != held[i].Slot || !out[i].Val.Equal(held[i].Val) {
			t.Fatalf("message %d changed under a step: %+v, was %+v", i, out[i], held[i])
		}
	}
	if next := lead.Drain(); len(next) != 3 || &next[0] == &out[0] {
		t.Fatalf("second drain: %d messages, sharing the first's buffer %v", len(next), &next[0] == &out[0])
	}
}

// While a membership epoch is scheduled past the frontier, a read must
// reach Q2 of its members too: here Q2 of {0,1,2} is two answers, and
// of {0,1,2,3} three.
func TestReadReachesTheScheduledEpochToo(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	lead.configs = append(lead.configs, cfgEpoch{from: lead.CommitFrontier() + Alpha, members: []types.NodeID{0, 1, 2, 3}})
	lead.ReadIndex(1)
	var answers []Message
	for _, m := range lead.Drain() {
		if m.To != 3 {
			g.nodes[m.To].Step(m)
			answers = append(answers, g.nodes[m.To].Drain()...)
		}
	}
	if len(answers) < 2 || answers[0].From != 1 {
		t.Fatalf("answers %+v, want node 1's first and node 2's", answers)
	}
	lead.Step(answers[0])
	if rs := lead.TakeReads(); len(rs) != 0 {
		t.Fatalf("node 1's answer, two of the scheduled epoch's four, confirmed %+v", rs)
	}
	for _, m := range answers[1:] {
		lead.Step(m)
	}
	if rs := lead.TakeReads(); len(rs) != 1 || rs[0].Dropped {
		t.Fatalf("three answers of four: %+v", rs)
	}
}

// An Accept carries the newest round, so its Accepted answers it: with
// the probe lost, a write that leaves after the read confirms it.
func TestAnAcceptedForALaterAcceptConfirmsARead(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	lead.ReadIndex(1)
	lead.Drain() // the probe to node 1 is lost
	lead.Submit(types.Value("w"))
	g.pump(func(m Message) bool { return m.To == 1 || m.From == 1 })
	if rs := lead.TakeReads(); len(rs) != 1 || rs[0].ID != 1 || rs[0].Dropped {
		t.Fatalf("after node 2 accepted a value sent after the read: %+v", rs)
	}
}
