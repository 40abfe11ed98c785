package raft

import (
	"bytes"
	"fmt"
	"testing"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Replication flow control, driven by hand: Step and Drain only, no
// runner and no clock except where a test is about the heartbeat.

// trio is node 0 leading nodes 1 and 2, every follower out of its probe.
type trio struct {
	tb    testing.TB
	nodes []*Node
	lead  *Node
}

func newTrio(tb testing.TB) *trio { return newGroup(tb, 3) }

// newGroup is a trio of n: node 0 leading nodes 1..n-1.
func newGroup(tb testing.TB, n int) *trio {
	tb.Helper()
	g := &trio{tb: tb, nodes: make([]*Node, n)}
	peers := make([]types.NodeID, n)
	for i := range peers {
		peers[i] = types.NodeID(i)
	}
	for i := range g.nodes {
		g.nodes[i] = New(types.NodeID(i), Config{Peers: peers, Seed: 31})
	}
	g.lead = g.nodes[0]
	for i := 0; i < 100 && g.lead.role == follower; i++ {
		g.lead.Tick()
	}
	g.pump(nil)
	if !g.lead.IsLeader() {
		tb.Fatal("node 0 did not win the election")
	}
	for p, pr := range g.lead.prs {
		if pr.state != stateReplicate || pr.match != g.lead.lastIndex() {
			tb.Fatalf("follower %v not caught up after the election: %+v", p, *pr)
		}
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

// burst submits k distinct values to the leader without draining.
func (g *trio) burst(k int) {
	base := g.lead.lastIndex()
	for i := 0; i < k; i++ {
		g.lead.Submit(types.Value(fmt.Sprintf("v%d", int(base)+i+1)))
	}
}

// heartbeat runs the leader's clock through one heartbeat interval,
// delivering what each tick sends before the next.
func (g *trio) heartbeat() []Message {
	var sent []Message
	for i := 0; i < g.lead.cfg.HeartbeatTicks; i++ {
		g.lead.Tick()
		sent = append(sent, g.pump(nil)...)
	}
	return sent
}

// replicated: every log ends where the leader's does and the leader has
// committed all of it. What the followers have committed is one frame
// behind — LeaderCommit rides the next append or the heartbeat.
func (g *trio) replicated() {
	g.tb.Helper()
	last := g.lead.lastIndex()
	if g.lead.CommitFrontier() != last {
		g.tb.Fatalf("leader committed %d of %d", g.lead.CommitFrontier(), last)
	}
	for _, n := range g.nodes {
		if n.lastIndex() != last {
			g.tb.Fatalf("node %v's log ends at %d, leader's at %d", n.id, n.lastIndex(), last)
		}
	}
}

// converged: replicated, and every follower has committed all of it too.
func (g *trio) converged() {
	g.tb.Helper()
	g.replicated()
	last := g.lead.lastIndex()
	for _, n := range g.nodes {
		if n.CommitFrontier() != last {
			g.tb.Fatalf("node %v committed %d of %d", n.id, n.CommitFrontier(), last)
		}
	}
}

// entriesTo counts how often each log index was sent to p.
func entriesTo(sent []Message, p types.NodeID) map[types.Seq]int {
	count := map[types.Seq]int{}
	for _, m := range sent {
		if m.Kind == MsgAppend && m.To == p {
			for i := range m.Entries {
				count[m.PrevIndex+types.Seq(i)+1]++
			}
		}
	}
	return count
}

// A burst goes to the pick alone, each entry once; the first tick sends
// the other follower all of it, once, in one append.
func TestBurstSendsEveryEntryOnce(t *testing.T) {
	g := newTrio(t)
	base := g.lead.lastIndex()
	g.burst(32)
	sent := g.pump(nil)
	// 1 append and 1 ack per entry and nothing for the commits:
	// Multi-Paxos' accept/accepted to its Q2−1 picks.
	if len(sent) != 2*32 {
		t.Errorf("burst of 32 cost %d messages, want %d", len(sent), 2*32)
	}
	if g.lead.CommitFrontier() != base+32 {
		t.Fatalf("the pick's acks committed %d, want %d", g.lead.CommitFrontier(), base+32)
	}
	// All 32 appends left before the first ack came back, so none of
	// them carried a commit index past the election's.
	if got := g.nodes[2].CommitFrontier(); got != base {
		t.Errorf("node 2 committed %d with no frame to learn it from, want %d", got, base)
	}
	g.lead.Tick()
	push := g.pump(nil)
	if len(push) != 2 || push[0].To != 1 || len(push[0].Entries) != 32 {
		t.Fatalf("the tick sent %+v, want one append of 32 to node 1 and its ack", push)
	}
	g.replicated()
	sent = append(sent, push...)
	for _, p := range []types.NodeID{1, 2} {
		count := entriesTo(sent, p)
		for idx := base + 1; idx <= base+32; idx++ {
			if count[idx] != 1 {
				t.Errorf("index %d went to node %v %d times", idx, p, count[idx])
			}
		}
		if len(count) != 32 {
			t.Errorf("node %v was sent %d distinct indices, want 32", p, len(count))
		}
	}
}

// A commit advance is not a reason to send: the ack that commits an
// entry leaves the leader's outbox empty, and the next append carries
// the new commit index for free.
func TestCommitAdvanceSendsNothing(t *testing.T) {
	g := newTrio(t)
	g.burst(1)
	var acks []Message
	for _, m := range g.lead.Drain() {
		g.nodes[m.To].Step(m)
		acks = append(acks, g.nodes[m.To].Drain()...)
	}
	before := g.lead.CommitFrontier()
	for _, m := range acks {
		g.lead.Step(m)
	}
	if g.lead.CommitFrontier() != before+1 {
		t.Fatalf("the acks did not commit: %d → %d", before, g.lead.CommitFrontier())
	}
	if out := g.lead.Drain(); len(out) != 0 {
		t.Fatalf("the commit advance sent %+v", out)
	}
	g.burst(1)
	out := g.lead.Drain()
	if len(out) != 1 {
		t.Fatalf("the next submit sent %d messages, want one append to the pick", len(out))
	}
	for _, m := range out {
		if m.Kind != MsgAppend || len(m.Entries) != 1 || m.LeaderCommit != before+1 {
			t.Fatalf("next append %+v, want one entry and LeaderCommit %d", m, before+1)
		}
	}
}

// When the traffic stops, the last commit reaches the followers within
// HeartbeatTicks: the follower the burst skipped in the tick's append,
// which carries it, and the pick in an unanswered empty append — the
// one follower no append this interval told it to.
func TestIdleFollowersLearnTheLastCommitAtTheHeartbeat(t *testing.T) {
	g := newTrio(t)
	g.burst(3)
	g.pump(nil)
	sent := g.heartbeat()
	g.converged()
	if len(sent) != 3 {
		t.Fatalf("the heartbeat interval cost %d messages, want 3: %+v", len(sent), sent)
	}
	last := g.lead.lastIndex()
	if m := sent[0]; m.Kind != MsgAppend || m.To != 1 || len(m.Entries) != 3 || m.LeaderCommit != last {
		t.Fatalf("tick frame %+v, want node 1's three entries carrying commit %d", m, last)
	}
	if m := sent[2]; m.Kind != MsgAppend || m.To != 2 || len(m.Entries) != 0 || m.LeaderCommit != last {
		t.Fatalf("heartbeat frame %+v, want an empty append to node 2 carrying commit %d", m, last)
	}
}

func TestLostAppendRecoversThroughReject(t *testing.T) {
	g := newTrio(t)
	base := g.lead.lastIndex()
	g.burst(32)
	lost, dropped := base+10, false
	sent := g.pump(func(m Message) bool {
		if !dropped && m.Kind == MsgAppend && m.To == 2 && m.PrevIndex+1 == lost {
			dropped = true
			return true
		}
		return false
	})
	// No Tick anywhere: the reject did it, for the pick.
	if g.nodes[2].lastIndex() != base+32 || g.lead.CommitFrontier() != base+32 {
		t.Fatalf("node 2 holds %d, leader committed %d; want %d", g.nodes[2].lastIndex(), g.lead.CommitFrontier(), base+32)
	}
	count := entriesTo(sent, 2)
	for idx := base + 1; idx <= base+32; idx++ {
		want := 1
		if idx >= lost {
			want = 2 // the lost frame and the 22 rejected behind it, resent once
		}
		if count[idx] != want {
			t.Errorf("index %d went to node 2 %d times, want %d", idx, count[idx], want)
		}
	}
	rejects := 0
	for _, m := range sent {
		if m.Kind == MsgAppendResp && m.From == 2 && !m.Success {
			rejects++
		}
	}
	// One reject per frame behind the lost one: many rejects, one resend.
	if rejects != 22 {
		t.Errorf("%d rejects, want one per frame behind the lost one (22)", rejects)
	}
	g.heartbeat()
	g.converged()
}

func TestAllInFlightLostRecoversAtHeartbeat(t *testing.T) {
	g := newTrio(t)
	g.burst(8)
	lost := func(m Message) bool { return m.Kind == MsgAppend }
	g.pump(lost) // the pick's eight, and below the first tick's push to node 1
	for i := 0; i < g.lead.cfg.HeartbeatTicks-1; i++ {
		g.lead.Tick()
		for _, m := range g.pump(lost) {
			if m.To == 2 {
				t.Fatalf("tick %d: resent before the heartbeat interval was over: %+v", i, m)
			}
		}
	}
	if got := g.lead.CommitFrontier(); got != g.lead.lastIndex()-8 {
		t.Fatalf("commit moved to %d with every append lost", got)
	}
	g.lead.Tick()
	g.pump(nil)
	g.replicated() // the heartbeat resent the burst to both
	g.heartbeat()
	g.converged() // and the next one told the followers it is committed
}

func TestLostAckRecoversAtHeartbeat(t *testing.T) {
	g := newTrio(t)
	g.burst(4)
	g.pump(func(m Message) bool { return m.Kind == MsgAppendResp })
	if got := g.lead.CommitFrontier(); got != g.lead.lastIndex()-4 {
		t.Fatalf("commit moved to %d with every ack lost", got)
	}
	g.heartbeat()
	g.replicated() // the heartbeat resent the burst, and these acks arrived
	g.heartbeat()
	g.converged()
}

// Duplicated and reordered acks and stale rejects: next never falls
// below match+1, match never falls, and nothing is resent until a reject
// that is news arrives — which is answered by exactly one resend however
// often it is repeated.
func TestStaleResponsesMoveNothing(t *testing.T) {
	g := newTrio(t)
	base := g.lead.lastIndex()
	term := g.lead.term
	g.burst(4)
	g.lead.Drain() // node 1's frames: this test answers for it
	pr := g.lead.prs[1]
	resent := func() int {
		k := 0
		for _, m := range g.lead.Drain() {
			if m.Kind == MsgAppend && m.To == 1 && len(m.Entries) > 0 {
				k++
			}
		}
		return k
	}
	ack := func(match types.Seq) Message {
		return Message{Kind: MsgAppendResp, From: 1, To: 0, Term: term, Success: true, MatchIndex: match}
	}
	reject := func(prev, hint types.Seq) Message {
		return Message{Kind: MsgAppendResp, From: 1, To: 0, Term: term, PrevIndex: prev, MatchIndex: hint}
	}
	for i, m := range []Message{
		ack(base + 4), ack(base + 2), ack(base + 4), // in order, overtaken, duplicated
		reject(base+1, base), reject(base+3, base+2), reject(base+4, base+3), // of frames since acknowledged
	} {
		g.lead.Step(m)
		if pr.match != base+4 || pr.next != base+5 || pr.state != stateReplicate {
			t.Fatalf("response %d moved the progress: %+v", i, *pr)
		}
		if k := resent(); k != 0 {
			t.Fatalf("response %d caused %d resend(s)", i, k)
		}
	}

	g.burst(2)
	g.lead.Drain()
	// Node 1 missed base+5: it refuses base+6, three times over.
	total := 0
	for i := 0; i < 3; i++ {
		g.lead.Step(reject(base+5, base+4))
		if pr.next <= pr.match {
			t.Fatalf("next %d at or below match %d", pr.next, pr.match)
		}
		total += resent()
	}
	if total != 1 {
		t.Fatalf("a repeated reject caused %d resends, want 1", total)
	}
	if pr.state != stateProbe || pr.next != base+5 {
		t.Fatalf("after the reject: %+v, want a probe from %d", *pr, base+5)
	}
	g.lead.Step(ack(base + 6))
	if pr.state != stateReplicate || pr.match != base+6 || pr.next != base+7 {
		t.Fatalf("after the probe's ack: %+v", *pr)
	}
}

// Who answers what: an append that carried entries is acknowledged, a
// matched empty one is applied and not answered, a reject echoes the
// PrevIndex it refused with a hint, and a stale-term append is told the
// term.
func TestFollowerAnswers(t *testing.T) {
	f := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 32})
	step := func(m Message) []Message {
		m.Kind, m.From, m.To = MsgAppend, 0, 1
		f.Step(m)
		return f.Drain()
	}
	two := []LogEntry{{Term: 2, Val: types.Value("a")}, {Term: 2, Val: types.Value("b")}}

	out := step(Message{Term: 2, Entries: two})
	if len(out) != 1 || !out[0].Success || out[0].MatchIndex != 2 {
		t.Fatalf("append with entries: %+v", out)
	}
	out = step(Message{Term: 2, PrevIndex: 2, PrevTerm: 2, LeaderCommit: 2})
	if len(out) != 0 {
		t.Fatalf("matched empty append was answered: %+v", out)
	}
	if f.CommitFrontier() != 2 || len(f.TakeDecisions()) != 2 {
		t.Fatalf("matched empty append not applied: commit %d", f.CommitFrontier())
	}
	out = step(Message{Term: 2, PrevIndex: 7, PrevTerm: 2})
	if len(out) != 1 || out[0].Success || out[0].PrevIndex != 7 || out[0].MatchIndex != 2 {
		t.Fatalf("gap past the log: %+v, want a reject echoing 7 and hinting the last index 2", out)
	}
	step(Message{Term: 2, PrevIndex: 2, PrevTerm: 2, Entries: []LogEntry{{Term: 2, Val: types.Value("c")}}})
	out = step(Message{Term: 3, PrevIndex: 3, PrevTerm: 3})
	if len(out) != 1 || out[0].Success || out[0].PrevIndex != 3 || out[0].MatchIndex != 2 {
		t.Fatalf("term mismatch inside the log: %+v, want a reject echoing 3 and hinting the commit index 2", out)
	}
	out = step(Message{Term: 1, PrevIndex: 3, PrevTerm: 2})
	if len(out) != 1 || out[0].Success || out[0].Term != 3 {
		t.Fatalf("stale-term append: %+v, want a reject carrying term 3", out)
	}
}

// A follower below the leader's snapshot has one chunk outstanding.
// Submits and commit advances do not repeat it; the heartbeat does.
func TestOutstandingSnapshotChunkNotResentBySubmit(t *testing.T) {
	lead := soloLeader(t, 0)
	for i := 1; i <= 4; i++ {
		lead.Submit(types.Value{byte(i)})
	}
	lead.TakeDecisions()
	if !lead.Compact(lead.CommitFrontier(), bytes.Repeat([]byte("0123456789abcdef"), 2*snapshot.ChunkSize/16)) {
		t.Fatal("compact")
	}
	lead.Submit(confVal(snapshot.ConfAdd, 1))
	joiner := New(1, Config{Peers: []types.NodeID{0, 1}, Passive: true, Seed: 33})
	// The probe admitting node 1 is refused (its log is empty), which
	// puts it below the snapshot: chunk 0 goes out.
	for _, m := range lead.Drain() {
		joiner.Step(m)
	}
	for _, m := range joiner.Drain() {
		lead.Step(m)
	}
	out := lead.Drain()
	if len(out) != 1 || out[0].Kind != MsgSnap || out[0].Offset != 0 {
		t.Fatalf("after the refused probe: %+v, want chunk 0", out)
	}
	for i := 0; i < 3; i++ {
		lead.Submit(types.Value{byte(10 + i)})
		if out := lead.Drain(); len(out) != 0 {
			t.Fatalf("submit %d sent %+v with a chunk outstanding", i, out)
		}
	}
	var again []Message
	for i := 0; i < lead.cfg.HeartbeatTicks && len(again) == 0; i++ {
		lead.Tick()
		again = lead.Drain()
	}
	if len(again) != 1 || again[0].Kind != MsgSnap || again[0].Offset != 0 {
		t.Fatalf("heartbeat sent %+v, want chunk 0 again", again)
	}
	// From here acks drive the transfer, a chunk each, then the entries
	// above the snapshot.
	nodes := map[types.NodeID]*Node{0: lead, 1: joiner}
	joiner.Step(again[0])
	shuttle(nodes, 100, nil)
	if joiner.TakeInstalledSnapshot() == nil || joiner.CommitFrontier() != lead.CommitFrontier() || joiner.lastIndex() != lead.lastIndex() {
		t.Fatalf("joiner at last=%d commit=%d, leader at %d/%d",
			joiner.lastIndex(), joiner.CommitFrontier(), lead.lastIndex(), lead.CommitFrontier())
	}
}

// A follower that is probing gets nothing from a submit, so a round of
// submits does not stand in for the heartbeat: however fast they come,
// a lost probe is repeated within one interval.
func TestSubmitsDoNotStarveALostProbe(t *testing.T) {
	g := newTrio(t)
	base := g.lead.lastIndex()
	// Node 1 loses base+1, sent by the first tick, refuses base+2, sent
	// by the second, and the probe that answers the reject is lost too.
	lost := func(m Message) bool {
		return m.Kind == MsgAppend && m.To == 1 && len(m.Entries) > 0 && m.PrevIndex == base
	}
	for i := 0; i < 2; i++ {
		g.burst(1)
		g.pump(nil)
		g.lead.Tick()
		g.pump(lost)
	}
	if pr := g.lead.prs[1]; pr.state != stateProbe {
		t.Fatalf("node 1 should be left probing: %+v", *pr)
	}
	for i := 0; i < g.lead.cfg.HeartbeatTicks; i++ {
		g.burst(1)
		g.pump(nil)
		g.lead.Tick()
	}
	g.pump(nil)
	g.replicated()
	g.heartbeat()
	g.converged()
}

// A follower that is voted out is sent the entry removing it, together
// with whatever it had not been sent yet, and so stops campaigning; the
// leader then forgets it, and nothing it answers moves anything.
func TestRemovedFollowerIsSentItsRemoval(t *testing.T) {
	g := newTrio(t)
	g.burst(3)
	g.lead.Drain() // the burst is lost on the way to both followers
	g.lead.Submit(confVal(snapshot.ConfRemove, 2))
	removal := g.lead.lastIndex()
	var toGone []Message
	for _, m := range g.lead.Drain() {
		if m.To == 2 {
			toGone = append(toGone, m)
		}
	}
	if len(toGone) != 1 || len(toGone[0].Entries) != 1 || toGone[0].PrevIndex != removal-1 {
		t.Fatalf("removed follower was sent %+v, want one append carrying entry %d", toGone, removal)
	}
	if g.lead.prs[2] != nil {
		t.Fatal("leader kept the progress of a member that left")
	}
	// The removal arrives past the lost burst and is refused; the leader
	// has forgotten node 2, so the reject resends nothing.
	gone := g.nodes[2]
	gone.Step(toGone[0])
	for _, m := range gone.Drain() {
		g.lead.Step(m)
	}
	for _, m := range g.lead.Drain() {
		if m.To == 2 {
			t.Fatalf("leader answered a node outside the config: %+v", m)
		}
	}

	// Nothing lost: the removal arrives, and the removed node never
	// campaigns again.
	g = newTrio(t)
	g.lead.Submit(confVal(snapshot.ConfRemove, 2))
	g.pump(nil)
	gone = g.nodes[2]
	if gone.isMember(2) {
		t.Fatalf("removed node still counts itself a member: %v", gone.Members())
	}
	for i := 0; i < 10*gone.cfg.ElectionTimeoutTicks; i++ {
		gone.Tick()
	}
	if out := gone.Drain(); len(out) != 0 || gone.elections != 0 {
		t.Fatalf("removed node campaigned: %+v", out)
	}
}
