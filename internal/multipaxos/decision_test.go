package multipaxos

import (
	"fmt"
	"slices"
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
	nodes []*Node
}

func newTrio(tb testing.TB) *trio { return newGroup(tb, 3) }

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

// heartbeat runs lead's clock through one heartbeat interval,
// delivering what each tick sends before the next.
func (g *trio) heartbeat(lead *Node) []Message {
	var sent []Message
	for i := 0; i < lead.cfg.HeartbeatTicks; i++ {
		lead.Tick()
		sent = append(sent, g.pump(nil)...)
	}
	return sent
}

// decided checks that every node has decided exactly want, in order.
func (g *trio) decided(want ...types.Value) {
	g.tb.Helper()
	for _, n := range g.nodes {
		if int(n.CommitFrontier()) != len(want) {
			g.tb.Fatalf("node %v's frontier is %d, want %d", n.id, n.CommitFrontier(), len(want))
		}
		for i, v := range want {
			if got := n.At(types.Seq(i + 1)).Val; !got.Equal(v) {
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

// carries reports whether m is an Accept carrying slot s.
func carries(m Message, s types.Seq) bool {
	return m.Kind == MsgAccept && m.Slot < s && s <= m.Slot+types.Seq(len(m.Entries))
}

// Pipelined submits go to the pick alone, an accept and an accepted per
// value; the first tick sends the other follower every decided value in
// one Accept, which it acknowledges.
func TestPipelinedSubmitsCostTwoMessagesEach(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	for i := 0; i < 32; i++ {
		lead.Submit(types.Value(fmt.Sprintf("v%d", i)))
	}
	sent := g.pump(nil)
	// 1 accept and 1 accepted per value and nothing for the decisions:
	// raft's append/ack to its Threshold()−1 picks.
	if k := kinds(sent); len(sent) != 2*32 || k[MsgAccept] != 32 || k[MsgAccepted] != 32 {
		t.Fatalf("32 pipelined submits cost %d messages (%v), want 32 accepts and 32 accepteds", len(sent), k)
	}
	if lead.CommitFrontier() != 32 {
		t.Fatalf("leader decided %d of 32", lead.CommitFrontier())
	}
	// All 32 accepts left before the first vote came back, so none of them
	// carried a frontier; node 1 was sent nothing.
	for _, n := range g.nodes[1:] {
		if n.CommitFrontier() != 0 {
			t.Fatalf("node %v learned %d slots with no frame to learn them from", n.id, n.CommitFrontier())
		}
	}
	lead.Tick()
	push := g.pump(nil)
	if len(push) != 2 || push[0].Kind != MsgAccept || push[0].To != 1 || len(push[0].Entries) != 32 || push[1].Kind != MsgAccepted {
		t.Fatalf("the tick sent %+v, want one accept of 32 to node 1 and its answer", push)
	}
	if got := g.nodes[1].CommitFrontier(); got != 32 {
		t.Fatalf("node 1 learned %d of the 32 slots the tick sent it", got)
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
	if len(out) != 1 {
		t.Fatalf("the next submit sent %d messages, want one accept to the pick", len(out))
	}
	for _, m := range out {
		if !carries(m, 2) || m.Commit != 1 {
			t.Fatalf("next accept %+v, want slot 2 carrying frontier 1", m)
		}
		g.nodes[m.To].Step(m)
		if got := g.nodes[m.To].CommitFrontier(); got != 1 {
			t.Fatalf("node %v's frontier is %d after an accept carrying 1", m.To, got)
		}
	}
}

// When the traffic stops, the last decisions reach the acceptors within
// HeartbeatTicks, one frame each: the follower the submits skipped in
// the tick's Accept, which names them, and the pick in a bare heartbeat
// — the one follower no frame this interval told the frontier.
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
	if k := kinds(sent); len(sent) != 3 || k[MsgAccept] != 2 || len(sent[0].Entries) != 3 || len(sent[2].Entries) != 0 {
		t.Fatalf("the heartbeat interval cost %d messages (%v), want an accept of 3 slots, its answer and a bare heartbeat", len(sent), k)
	}
	if sent[0].To != 1 || sent[2].To != 2 {
		t.Fatalf("the accept went to %v and the bare heartbeat to %v, want 1 and 2", sent[0].To, sent[2].To)
	}
}

// The rule that makes the frontier safe. Node 0 holds (b_old, 1, x): it
// proposed x as leader and nobody heard. Node 2 then leads under b with
// node 1's vote and decides y at slot 1, and node 0 misses that Accept.
// An Accept of slot 2 under b that names slot 1's entry and frontier 1
// reaches node 0: it holds a value at slot 1 and the leader says slot 1
// is decided, but the value is from another ballot and is not the one
// decided, so node 0 refuses, and learns y when the leader resends it.
func TestFrontierNeverLearnsASlotAcceptedUnderAnOlderBallot(t *testing.T) {
	g := newTrio(t)
	x, y, z := types.Value("x"), types.Value("y"), types.Value("z")
	deposed := g.elect(0, nil)
	deposed.Submit(x)
	deposed.Drain() // the accept is lost
	if e := deposed.At(1); !e.Val.Equal(x) {
		t.Fatalf("node 0 holds %+v at slot 1, want x under its own ballot", e)
	}

	toDeposed := func(m Message) bool { return m.To == 0 }
	lead := g.elect(2, toDeposed)
	lead.Submit(y)
	g.pump(toDeposed)
	if lead.CommitFrontier() != 1 || !lead.At(1).Val.Equal(y) {
		t.Fatalf("node 2 did not decide y at slot 1: frontier %d", lead.CommitFrontier())
	}
	lead.Submit(z)
	g.pump(toDeposed)

	deposed.Step(Message{Kind: MsgAccept, From: 2, To: 0, Ballot: lead.ballot, Slot: 1, Prev: lead.At(1).Term,
		Entries: []Entry{lead.At(2)}, Commit: 1})
	if ds := deposed.TakeDecisions(); deposed.CommitFrontier() != 0 || len(ds) != 0 {
		t.Fatalf("node 0 learned %+v from a frontier covering a slot it accepted under %v", ds, unpackBallot(deposed.At(1).Term))
	}
	out := deposed.Drain()
	if len(out) != 1 || out[0].Kind != MsgAccepted || out[0].OK || out[0].Slot != 1 {
		t.Fatalf("node 0 answered %+v, want a refusal of slot 1", out)
	}
	lead.Step(out[0])
	g.pump(nil)
	g.heartbeat(lead)
	g.decided(y, z)
}

// An Accept lost on its way to the pick costs a round trip: the pick
// refuses the next Accept, which does not follow its log, and the
// leader resends from the hole. A refusal duplicated on the way rewinds
// the leader again, and taking the slots a second time is no event.
func TestLostAcceptIsHealedFromTheHeartbeat(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	vals := []types.Value{types.Value("a"), types.Value("b"), types.Value("c")}
	for _, v := range vals {
		lead.Submit(v)
	}
	var refused []Message
	lost := false
	for _, m := range g.pump(func(m Message) bool {
		if lost || m.To != 2 || !carries(m, 2) {
			return false
		}
		lost = true
		return true
	}) {
		if m.Kind == MsgAccepted && !m.OK {
			refused = append(refused, m)
		}
	}
	if lead.CommitFrontier() != 3 || len(refused) != 1 || refused[0].From != 2 || refused[0].Slot != 2 {
		t.Fatalf("leader's frontier is %d after refusals %+v, want 3 after one refusal of slot 2 by node 2", lead.CommitFrontier(), refused)
	}
	g.heartbeat(lead)
	g.decided(vals...)

	for _, n := range g.nodes {
		n.TakeDecisions()
	}
	lead.Step(refused[0])
	if sent := g.pump(nil); len(sent) != 2 || sent[0].Kind != MsgAccept || sent[1].Kind != MsgAccepted {
		t.Fatalf("a repeated refusal drew %+v, want one accept and its answer", sent)
	}
	g.decided(vals...)
	for _, n := range g.nodes {
		if ds := n.TakeDecisions(); len(ds) != 0 {
			t.Fatalf("node %v decided %+v a second time", n.id, ds)
		}
	}
}

// Every Accept of slot 2 is lost, to the pick at submit and to the
// other follower at the tick, while slot 1 is voted and decided. The
// frontier stands still, and the heartbeat after a whole still interval
// sends slot 2 again to both followers, neither of which voted on it.
func TestAcceptLostToEveryFollowerIsResent(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	vals := []types.Value{types.Value("a"), types.Value("b"), types.Value("c")}
	for _, v := range vals {
		lead.Submit(v)
	}
	lost := func(m Message) bool { return carries(m, 2) }
	g.pump(lost)
	lead.Tick()
	if sent := g.pump(lost); kinds(sent)[MsgAccept] == 0 || lead.CommitFrontier() != 1 {
		t.Fatalf("the tick sent %v, frontier %d: want slot 2 sent and lost, frontier 1", kinds(sent), lead.CommitFrontier())
	}
	for i := 0; i < 2*lead.cfg.HeartbeatTicks && lead.CommitFrontier() < 3; i++ {
		lead.Tick()
		g.pump(nil)
	}
	if lead.CommitFrontier() != 3 {
		t.Fatalf("leader's frontier is %d two heartbeat intervals after the loss, want 3", lead.CommitFrontier())
	}
	g.heartbeat(lead)
	g.decided(vals...)
}

// A candidate whose quorum is committed past it catches up before it
// leads: an Ack carries what the acker holds past the candidate's
// frontier, and the slots the acker decided the candidate learns. Without
// that it would fill chosen slots with no-ops, or wait out its election
// timer while each later candidate behind the frontier does the same:
// seed 138 of make explore's Multi-Paxos loss sweep once led nobody from
// tick 454 to the end of its 600-tick run.
func TestCandidateLeadsOnceCaughtUp(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	vals := []types.Value{types.Value("a"), types.Value("b")}
	for _, v := range vals {
		lead.Submit(v)
	}
	cut := func(m Message) bool { return m.From == 2 || m.To == 2 }
	g.pump(cut)
	for i := 0; i < lead.cfg.HeartbeatTicks; i++ {
		lead.Tick()
		g.pump(cut)
	}
	late := g.nodes[2]
	if late.CommitFrontier() != 0 || g.nodes[1].CommitFrontier() != 2 {
		t.Fatalf("frontiers %d and %d, want node 2 at 0 and node 1 at 2", late.CommitFrontier(), g.nodes[1].CommitFrontier())
	}
	for i := 0; i < 200 && late.role == follower; i++ {
		late.Tick()
	}
	var ahead int
	for _, m := range g.pump(nil) {
		if m.Kind == MsgAck && m.Commit == 2 && m.Slot == 0 && len(m.Entries) == 2 {
			ahead++
		}
	}
	if !late.IsLeader() || ahead == 0 {
		t.Fatalf("node 2 leads: %v, after %d acks carrying the decided slots", late.IsLeader(), ahead)
	}
	late.Submit(types.Value("c"))
	g.pump(nil)
	g.heartbeat(late)
	g.decided(append(vals, types.Value("c"))...)
}

// A candidate wins only on an election quorum of the epoch it is in.
// Node 1 is cut off at frontier 0 while leader 2 adds node 3 and then
// removes node 0 at slot j: slots from j+Alpha on are {1,2,3}'s, and
// {2,3} decide them. Node 1 campaigns in the bootstrap epoch {0,1,2},
// hearing only node 0, whose ack names a frontier past j. Learning from
// it brings node 1 into a later epoch — {0,1,2,3}, where {0,1} is no
// election quorum, or {1,2,3}, which node 0 is not in — disjoint from the
// {2,3} that decided past j+Alpha: it must campaign again there rather
// than lead on the tally it has.
func TestCandidateCaughtUpIntoAnotherEpochCampaignsAgain(t *testing.T) {
	boot := []types.NodeID{0, 1, 2}
	g := &trio{tb: t}
	for _, id := range boot {
		g.nodes = append(g.nodes, New(id, Config{Peers: boot, Seed: 41}))
	}
	g.nodes = append(g.nodes, New(3, Config{Peers: []types.NodeID{0, 1, 2, 3}, Passive: true, Seed: 41}))
	cut := func(m Message) bool { return m.From == 1 || m.To == 1 }
	lead := g.elect(2, cut)
	write := func(v types.Value) types.Seq {
		lead.Submit(v)
		at := lead.LastIndex()
		for range 2 {
			lead.Tick()
			g.pump(cut)
		}
		return at
	}
	write(confVal(snapshot.ConfAdd, 3))
	for i := 0; i < Alpha; i++ {
		write(types.Value(fmt.Sprint("a", i)))
	}
	j := write(confVal(snapshot.ConfRemove, 0))
	for i := 0; i < Alpha+2; i++ {
		write(types.Value(fmt.Sprint("b", i)))
	}
	if !slices.Equal(lead.Members(), []types.NodeID{1, 2, 3}) || lead.CommitFrontier() < j+Alpha {
		t.Fatalf("leader's members %v at frontier %d: want [1 2 3], active from %d", lead.Members(), lead.CommitFrontier(), j+Alpha)
	}
	if f := g.nodes[0].CommitFrontier(); f < j || f >= j+Alpha {
		t.Fatalf("removed node 0's frontier is %d, want [%d, %d)", f, j, j+Alpha)
	}

	late := g.nodes[1]
	onlyZero := func(m Message) bool { return cut(m) && m.From != 0 && m.To != 0 }
	for i := 0; i < 400 && late.CommitFrontier() < j; i++ {
		late.Tick()
		g.pump(onlyZero)
	}
	if late.CommitFrontier() < j {
		t.Fatalf("node 1 did not catch up from node 0: frontier %d, want %d", late.CommitFrontier(), j)
	}
	if late.IsLeader() {
		t.Fatalf("node 1 leads on {0,1} at frontier %d, though slot %d is the epoch %v's", late.CommitFrontier(), late.CommitFrontier()+1, late.membersFor(late.CommitFrontier()+1))
	}
	if in := late.membersFor(late.CommitFrontier() + 1); !slices.Equal(late.prepTo, in) || slices.Equal(in, boot) {
		t.Fatalf("node 1's last Prepare went to %v, want the epoch it is in, %v", late.prepTo, in)
	}

	// Healed, the group decides on, and a new write reaches {1,2,3}.
	for range 400 {
		for _, n := range g.nodes {
			n.Tick()
		}
		g.pump(nil)
	}
	var now *Node
	for _, n := range g.nodes {
		if n.IsLeader() {
			now = n
		}
	}
	if now == nil {
		t.Fatal("nobody leads after the heal")
	}
	now.Submit(types.Value("after"))
	g.heartbeat(now)
	for _, id := range []types.NodeID{1, 2, 3} {
		if f := g.nodes[id].CommitFrontier(); f != now.CommitFrontier() || !g.nodes[id].At(f).Val.Equal(types.Value("after")) {
			t.Fatalf("node %v's frontier %d, leader %v's %d: want both at the write after the heal", id, f, now.id, now.CommitFrontier())
		}
	}
}

// A leader's frontier moves by its own tallies alone. Answers that reach
// a node once it leads — an Accept naming a decided slot and a whole
// snapshot, sent under the ballot of the leader before it and slow on the
// way — are refused: they must not move the frontier the leader stamps
// on its Accepts, nor install anything.
func TestLeaderIgnoresCatchUpAnswers(t *testing.T) {
	g := newTrio(t)
	old := g.elect(1, nil).ballot
	lead := g.elect(0, nil)
	lead.Submit(types.Value("x"))
	lead.Drain()
	tag, _ := packBallot(old)
	lead.Step(Message{Kind: MsgAccept, From: 1, To: 0, Ballot: old, Entries: []Entry{{Term: tag, Val: types.Value("y")}}, Commit: 1})
	snap := snapshot.Encode(snapshot.Snapshot{LastIndex: 4, Members: []types.NodeID{0, 1, 2}})
	lead.Step(Message{Kind: MsgState, From: 1, To: 0, Ballot: old, Slot: 4, Val: types.Value(snap), Done: true, Commit: 4})
	if lead.CommitFrontier() != 0 || lead.TakeInstalledSnapshot() != nil || len(lead.TakeDecisions()) != 0 || !lead.IsLeader() {
		t.Fatalf("a leader learned from a late answer: frontier %d", lead.CommitFrontier())
	}
	for _, m := range lead.Drain() {
		if m.OK || m.Ballot != lead.ballot {
			t.Fatalf("the late answers drew %+v, want refusals under the leader's ballot", m)
		}
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
// Ack that carries nothing else — it carries what the acker holds past
// the candidate's frontier — decides them, and goes on to new writes.
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
		if len(m.Entries) != len(tail) || m.Slot != decided || m.Commit != decided {
			t.Fatalf("ack from node %v carries %d entries after slot %d at frontier %d, want slots %d..%d only",
				m.From, len(m.Entries), m.Slot, m.Commit, decided+1, decided+len(tail))
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
			if got := n.At(types.Seq(decided + 1 + i)).Val; !got.Equal(v) {
				t.Fatalf("node %v decided %q at slot %d, want %q", n.id, got, decided+1+i, v)
			}
		}
	}
}
