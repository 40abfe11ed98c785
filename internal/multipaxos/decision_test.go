package multipaxos

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// The Decision stage, driven by hand: Step and Drain only, no runner and
// no clock except where a test is about the heartbeat. The mirror of
// raft's flow_test.go.

// trio is three nodes; nobody leads until elect.
type trio struct {
	tb    testing.TB
	nodes [3]*Node
}

func newTrio(tb testing.TB) *trio {
	g := &trio{tb: tb}
	peers := []types.NodeID{0, 1, 2}
	for i := range g.nodes {
		g.nodes[i] = New(types.NodeID(i), Config{Peers: peers, Seed: 41})
	}
	return g
}

// pump delivers what the nodes have drained, and what that makes them
// send, until the group is quiet; drop (if non-nil) loses a message.
// It returns every message that was sent, lost or not, in order.
func (g *trio) pump(drop func(Message) bool) []Message {
	var sent []Message
	for {
		var round []Message
		for _, n := range g.nodes {
			round = append(round, n.Drain()...)
		}
		if len(round) == 0 {
			return sent
		}
		sent = append(sent, round...)
		for _, m := range round {
			if drop == nil || !drop(m) {
				g.nodes[m.To].Step(m)
			}
		}
	}
}

// elect runs id's clock until it campaigns, wins, and has sent the
// heartbeat that asserts it, so the next one is a full interval away.
func (g *trio) elect(id types.NodeID, drop func(Message) bool) *Node {
	g.tb.Helper()
	n := g.nodes[id]
	for i := 0; i < 200 && n.role == follower; i++ {
		n.Tick()
	}
	g.pump(drop)
	if !n.IsLeader() {
		g.tb.Fatalf("node %v did not win the election", id)
	}
	n.Tick()
	g.pump(drop)
	return n
}

// heartbeat runs lead's clock through one heartbeat interval and
// delivers what that sends.
func (g *trio) heartbeat(lead *Node) []Message {
	for i := 0; i < lead.cfg.HeartbeatTicks; i++ {
		lead.Tick()
	}
	return g.pump(nil)
}

// decided checks that every node has decided exactly want, in order.
func (g *trio) decided(want ...types.Value) {
	g.tb.Helper()
	for _, n := range g.nodes {
		if int(n.CommitFrontier()) != len(want) {
			g.tb.Fatalf("node %v's frontier is %d, want %d", n.id, n.CommitFrontier(), len(want))
		}
		for i, v := range want {
			if got := n.log.get(types.Seq(i + 1)).chosen; !got.Equal(v) {
				g.tb.Fatalf("node %v decided %q at slot %d, want %q", n.id, got, i+1, v)
			}
		}
	}
}

func kinds(sent []Message) map[MsgKind]int {
	count := map[MsgKind]int{}
	for _, m := range sent {
		count[m.Kind]++
	}
	return count
}

func TestPipelinedSubmitsCostFourMessagesEach(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	for i := 0; i < 32; i++ {
		lead.Submit(types.Value(fmt.Sprintf("v%d", i)))
	}
	sent := g.pump(nil)
	// 2 accepts and 2 accepteds per value and nothing for the decisions:
	// raft's append/ack.
	if k := kinds(sent); len(sent) != 4*32 || k[MsgAccept] != 2*32 || k[MsgAccepted] != 2*32 {
		t.Fatalf("32 pipelined submits cost %d messages (%v), want 64 accepts and 64 accepteds", len(sent), k)
	}
	if lead.CommitFrontier() != 32 {
		t.Fatalf("leader decided %d of 32", lead.CommitFrontier())
	}
	// All 32 accepts left before the first vote came back, so none of them
	// carried a frontier.
	for _, n := range g.nodes[1:] {
		if n.CommitFrontier() != 0 {
			t.Fatalf("node %v learned %d slots with no frame to learn them from", n.id, n.CommitFrontier())
		}
	}
}

// Deciding a slot is not a reason to send: the vote that meets the tally
// leaves the leader's outbox empty, and the next Accept carries the new
// frontier for free.
func TestCommitAdvanceSendsNothing(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	lead.Submit(types.Value("a"))
	var votes []Message
	for _, m := range lead.Drain() {
		g.nodes[m.To].Step(m)
		votes = append(votes, g.nodes[m.To].Drain()...)
	}
	for _, m := range votes {
		lead.Step(m)
	}
	if lead.CommitFrontier() != 1 {
		t.Fatalf("the votes did not decide slot 1: frontier %d", lead.CommitFrontier())
	}
	if out := lead.Drain(); len(out) != 0 {
		t.Fatalf("the decision sent %+v", out)
	}
	lead.Submit(types.Value("b"))
	out := lead.Drain()
	if len(out) != 2 {
		t.Fatalf("the next submit sent %d messages, want one accept per acceptor", len(out))
	}
	for _, m := range out {
		if m.Kind != MsgAccept || m.Slot != 2 || m.Commit != 1 {
			t.Fatalf("next accept %+v, want slot 2 carrying frontier 1", m)
		}
		g.nodes[m.To].Step(m)
		if got := g.nodes[m.To].CommitFrontier(); got != 1 {
			t.Fatalf("node %v's frontier is %d after an accept carrying 1", m.To, got)
		}
	}
}

// When the traffic stops, the last decisions reach the acceptors on the
// heartbeat: within HeartbeatTicks, one frame each, and nobody has to
// ask for a value it already holds.
func TestIdleFollowersLearnTheLastCommitAtTheHeartbeat(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	vals := []types.Value{types.Value("a"), types.Value("b"), types.Value("c")}
	for _, v := range vals {
		lead.Submit(v)
	}
	g.pump(nil)
	sent := g.heartbeat(lead)
	g.decided(vals...)
	if k := kinds(sent); len(sent) != 2 || k[MsgHeartbeat] != 2 {
		t.Fatalf("the heartbeat round cost %d messages (%v), want 2 heartbeats", len(sent), k)
	}
}

// The rule that makes the frontier safe. Node 0 holds (b_old, 1, x): it
// proposed x as leader and nobody heard. Node 2 then leads under b with
// node 1's vote, decides y at slot 1, and node 0 misses that Accept too.
// The first frame of b that reaches node 0 is Accept(b, 2, z, Commit: 1):
// it holds a value at slot 1 and the leader says slot 1 is decided, but
// the value is from another ballot and is not the one decided.
func TestFrontierNeverLearnsASlotAcceptedUnderAnOlderBallot(t *testing.T) {
	g := newTrio(t)
	x, y, z := types.Value("x"), types.Value("y"), types.Value("z")
	deposed := g.elect(0, nil)
	deposed.Submit(x)
	deposed.Drain() // both accepts lost
	if e := deposed.log.get(1); !e.val.Equal(x) {
		t.Fatalf("node 0 holds %+v at slot 1, want x under its own ballot", e)
	}

	toDeposed := func(m Message) bool { return m.To == 0 }
	lead := g.elect(2, toDeposed)
	lead.Submit(y)
	g.pump(toDeposed)
	if lead.CommitFrontier() != 1 || !lead.log.get(1).chosen.Equal(y) {
		t.Fatalf("node 2 did not decide y at slot 1: frontier %d", lead.CommitFrontier())
	}

	lead.Submit(z)
	var stamped bool
	for _, m := range g.pump(nil) {
		stamped = stamped || (m.Kind == MsgAccept && m.To == 0 && m.Slot == 2 && m.Commit == 1)
	}
	if !stamped {
		t.Fatal("node 0 was not sent Accept(b, 2, z, Commit: 1)")
	}
	if e := deposed.log.get(2); e.num != lead.curBallot || !e.val.Equal(z) {
		t.Fatalf("node 0 holds %+v at slot 2, want z under %v", e, lead.curBallot)
	}
	if ds := deposed.TakeDecisions(); deposed.CommitFrontier() != 0 || len(ds) != 0 {
		t.Fatalf("node 0 learned %+v from a frontier covering a slot it accepted under %v",
			ds, deposed.log.get(1).num)
	}

	// The heartbeat names the frontier again; node 0 still cannot take its
	// own word for slot 1, asks, and is told y.
	sent := g.heartbeat(lead)
	if k := kinds(sent); k[MsgCatchup] != 1 || k[MsgCommit] != 1 {
		t.Fatalf("heartbeat round %v, want one catch-up request and one batch", k)
	}
	g.decided(y, z)
}

func TestLostAcceptIsHealedFromTheHeartbeat(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	vals := []types.Value{types.Value("a"), types.Value("b"), types.Value("c")}
	for _, v := range vals {
		lead.Submit(v)
	}
	g.pump(func(m Message) bool { return m.Kind == MsgAccept && m.To == 1 && m.Slot == 2 })
	if lead.CommitFrontier() != 3 {
		t.Fatalf("leader decided %d of 3 with node 2 voting", lead.CommitFrontier())
	}
	// Node 1 takes slot 1 from the frontier, stops at the hole, and asks
	// from there; node 2 takes all three and asks for nothing.
	sent := g.heartbeat(lead)
	g.decided(vals...)
	var asked []Message
	for _, m := range sent {
		if m.Kind == MsgCatchup {
			asked = append(asked, m)
		}
	}
	if len(asked) != 1 || asked[0].From != 1 || asked[0].Slot != 2 {
		t.Fatalf("catch-up requests %+v, want one from node 1 starting at slot 2", asked)
	}

	// A catch-up request that was duplicated on the way is answered again,
	// with slots its sender has since learned from the frontier: learning
	// a slot twice with one value is not an event.
	for _, n := range g.nodes[1:] {
		n.TakeDecisions()
		lead.Step(Message{Kind: MsgCatchup, From: n.id, To: lead.id, Slot: 1})
	}
	if k := kinds(g.pump(nil)); k[MsgCommit] != 2 {
		t.Fatalf("answers to the repeated requests: %v, want 2 batches", k)
	}
	g.decided(vals...)
	for _, n := range g.nodes[1:] {
		if ds := n.TakeDecisions(); len(ds) != 0 {
			t.Fatalf("node %v decided %+v a second time", n.id, ds)
		}
	}
}

// learnThrough trusts that a leader's frontier moved by its own tallies.
// A catch-up answer that reaches a node while it leads — the request
// went out before it was elected and took its time — may name a value
// decided under a later ballot for a slot this leader has in flight with
// another. It must not move the frontier the leader stamps on Accepts.
func TestLeaderIgnoresCatchUpAnswers(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	lead.Submit(types.Value("x"))
	lead.Drain()
	lead.Step(Message{Kind: MsgCommit, From: 1, To: 0, Entries: []Entry{{Slot: 1, Val: types.Value("y")}}})
	snap := snapshot.Encode(snapshot.Snapshot{LastIndex: 4, Members: []types.NodeID{0, 1, 2}})
	lead.Step(Message{Kind: MsgState, From: 1, To: 0, Val: types.Value(snap), Commit: 4})
	if lead.CommitFrontier() != 0 || lead.TakeInstalledSnapshot() != nil || len(lead.TakeDecisions()) != 0 {
		t.Fatalf("a leader learned from a catch-up answer: frontier %d", lead.CommitFrontier())
	}
	lead.Submit(types.Value("z"))
	for _, m := range lead.Drain() {
		if m.Kind != MsgAccept || m.Commit != 0 {
			t.Fatalf("%+v, want an accept carrying frontier 0", m)
		}
	}
}

// Phase 1 is about the undecided tail, however long the log under it. A
// leader decides 5,000 slots, gets three more accepted and is lost before
// it hears a vote. The next leader recovers exactly those three from an
// Ack that carries nothing else — the acker's frontier rides Commit, and a
// candidate behind it would catch up before leading — decides them, and
// goes on to new writes.
func TestNewLeaderRecoversOnlyTheUndecidedTail(t *testing.T) {
	g := newTrio(t)
	old := g.elect(0, nil)
	const decided = 5000
	for i := 0; i < decided; i++ {
		old.Submit(types.Value(fmt.Sprintf("v%d", i)))
	}
	g.pump(nil)
	g.heartbeat(old)
	tail := []types.Value{types.Value("x"), types.Value("y"), types.Value("z")}
	for _, v := range tail {
		old.Submit(v)
	}
	g.pump(func(m Message) bool { return m.To == 0 }) // the votes are lost

	gone := func(m Message) bool { return m.To == 0 || m.From == 0 }
	next := g.nodes[1]
	for i := 0; i < 200 && next.role == follower; i++ {
		next.Tick()
	}
	acks := 0
	for _, m := range g.pump(gone) {
		if m.Kind != MsgAck {
			continue
		}
		acks++
		if len(m.Entries) != len(tail) || m.Entries[0].Slot != decided+1 || m.Commit != decided {
			t.Fatalf("ack from node %v carries %d entries at frontier %d, want slots %d..%d only",
				m.From, len(m.Entries), m.Commit, decided+1, decided+len(tail))
		}
	}
	if acks != 1 || !next.IsLeader() {
		t.Fatalf("node 1 leads: %v, after %d acks", next.IsLeader(), acks)
	}
	w := types.Value("w")
	next.Submit(w)
	g.pump(gone)
	for i := 0; i < next.cfg.HeartbeatTicks; i++ {
		next.Tick()
	}
	g.pump(gone)
	for _, n := range g.nodes[1:] {
		if n.CommitFrontier() != decided+4 {
			t.Fatalf("node %v's frontier is %d, want %d", n.id, n.CommitFrontier(), decided+4)
		}
		for i, v := range append(tail, w) {
			if got := n.log.get(types.Seq(decided + 1 + i)).chosen; !got.Equal(v) {
				t.Fatalf("node %v decided %q at slot %d, want %q", n.id, got, decided+1+i, v)
			}
		}
	}
}
