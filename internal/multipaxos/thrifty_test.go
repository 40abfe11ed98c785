package multipaxos

import (
	"bytes"
	"fmt"
	"testing"

	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Phase 2 goes to a quorum: an Accept leaves at once for the Q2−1
// acceptors that answered the highest slots, and the tick pushes every
// other follower what it has not been sent.

// newGroup is a trio of n nodes; nobody leads until elect.
func newGroup(tb testing.TB, n int) *trio {
	g := &trio{tb: tb, nodes: make([]*Node, n)}
	peers := make([]types.NodeID, n)
	for i := range peers {
		peers[i] = types.NodeID(i)
	}
	for i := range g.nodes {
		g.nodes[i] = New(types.NodeID(i), Config{Peers: peers, Seed: 41})
	}
	return g
}

// A pick that has gone silent delays a decision by one tick: the tick
// sends the other follower the open slot, its vote decides it, and from
// then on that follower, having answered the highest slot, is the pick.
func TestStalledPickDelaysADecisionByAtMostOneTick(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	silent := func(m Message) bool { return m.To == 2 || m.From == 2 }
	lead.Submit(types.Value("a"))
	g.pump(silent)
	if lead.CommitFrontier() != 0 {
		t.Fatal("decided with the pick silent and nothing sent to node 1")
	}
	lead.Tick()
	g.pump(silent)
	if lead.CommitFrontier() != 1 {
		t.Fatalf("one tick later the frontier is %d, want 1", lead.CommitFrontier())
	}
	lead.Submit(types.Value("b"))
	g.pump(silent)
	if lead.CommitFrontier() != 2 {
		t.Fatalf("the next submit decided %d of 2 without a tick: node 1 is not the pick", lead.CommitFrontier())
	}
}

// Every follower holds every slot one tick after its submit, in a trio
// and in a group of five (two picks, two followers fed by the tick), and
// the tick sends each lagging follower one push.
func TestEveryFollowerHoldsEverySlotWithinOneTick(t *testing.T) {
	for _, size := range []int{3, 5} {
		g := newGroup(t, size)
		lead := g.elect(0, nil)
		_, q2 := lead.quorumsFor(1)
		for round := 1; round <= 20; round++ {
			for i := 0; i < round%4; i++ {
				lead.Submit(types.Value(fmt.Sprintf("r%d.%d", round, i)))
			}
			g.pump(nil)
			lead.Tick()
			pushes := 0
			for _, m := range g.pump(nil) {
				if m.Kind == MsgAccept && len(m.Entries) > 0 {
					pushes++
				}
			}
			if want := size - q2; round%4 > 0 && pushes != want {
				t.Fatalf("%d nodes, round %d: the tick sent %d accepts, want one to each of %d lagging followers", size, round, pushes, want)
			}
			for _, n := range g.nodes {
				for s := types.Seq(1); s <= lead.LastIndex(); s++ {
					if s > n.CommitFrontier() && (s > n.LastIndex() || n.At(s).Term != lead.Term()) {
						t.Fatalf("%d nodes, round %d: node %v holds nothing of slot %d a tick after its submit", size, round, n.id, s)
					}
				}
			}
		}
	}
}

// A joiner is in the newest epoch but not in the one that still governs
// the slots below its activation: it is sent them, as any peer is sent
// what it lacks, but its vote for one is not counted. Node 3's admission
// is chosen at slot 1 and slot 2 stays open, the old followers' votes
// lost: node 3's vote beside the leader's would be two of the old three,
// with no quorum of slot 2's epoch behind it, and a leader elected by
// that epoch would fill the slot with a no-op.
func TestAJoinerDoesNotVoteOnTheOldEpochsSlots(t *testing.T) {
	g := newTrio(t)
	g.nodes = append(g.nodes, New(3, Config{Peers: []types.NodeID{0, 1, 2}, Passive: true, Seed: 41}))
	lead := g.elect(0, nil)
	lead.Submit(confVal(snapshot.ConfAdd, 3))
	g.pump(nil)
	if lead.CommitFrontier() != 1 || !lead.isMember(3) {
		t.Fatalf("setup: frontier %d, newest members %v", lead.CommitFrontier(), lead.latestMembers())
	}
	oldVotes := func(m Message) bool { return m.Kind == MsgAccepted && m.From != 3 }
	lead.Submit(types.Value("x"))
	g.pump(oldVotes)
	for i := 0; i < lead.cfg.HeartbeatTicks; i++ {
		lead.Tick()
		g.pump(oldVotes)
	}
	if lead.CommitFrontier() != 1 || g.nodes[3].CommitFrontier() != 1 {
		t.Fatalf("frontiers %d and %d a heartbeat interval on with only node 3 voting, want the admission alone",
			lead.CommitFrontier(), g.nodes[3].CommitFrontier())
	}
	lead.Step(Message{Kind: MsgAccepted, From: 3, To: 0, Ballot: lead.ballot, Slot: 2, Match: 2, OK: true})
	if lead.CommitFrontier() != 1 {
		t.Fatalf("slot 2 was decided on node 3's vote: frontier %d", lead.CommitFrontier())
	}
}

// A single node, and a Flexible pair whose Q2 is the leader alone, send
// nothing at submit: the leader's own vote decides.
func TestQuorumOfOneSubmitSendsNothing(t *testing.T) {
	solo := New(0, Config{Peers: []types.NodeID{0}})
	for i := 0; i < 200 && !solo.IsLeader(); i++ {
		solo.Tick()
	}
	solo.Drain()
	solo.Submit(types.Value("x"))
	if out := solo.Drain(); len(out) != 0 || solo.CommitFrontier() != 1 {
		t.Fatalf("single node sent %+v, frontier %d", out, solo.CommitFrontier())
	}

	g := &trio{tb: t, nodes: make([]*Node, 3)}
	for i := range g.nodes {
		g.nodes[i] = New(types.NodeID(i), Config{Peers: []types.NodeID{0, 1, 2}, Seed: 41, Quorums: quorum.Flexible{N: 3, Q1: 3, Q2: 1}})
	}
	lead := g.elect(0, nil)
	lead.Submit(types.Value("x"))
	if out := lead.Drain(); len(out) != 0 || lead.CommitFrontier() != 1 {
		t.Fatalf("Q2 = 1 sent %+v at submit, frontier %d", out, lead.CommitFrontier())
	}
}

// With a compaction on every node every tick, no follower that answers
// within the tick is sent a snapshot chunk. Each round the pick's votes
// decide a burst node 1 was not sent, every node compacts through its
// frontier, and the tick comes while what the leader's Compact pushed
// node 1 is still on its way: without that push node 1 would need slots
// compacted away and pull the snapshot.
func TestCompactionEveryTickSendsNoStateToALiveFollower(t *testing.T) {
	g := newTrio(t)
	lead := g.elect(0, nil)
	chunks := 0
	count := func(sent []Message) {
		for _, m := range sent {
			if m.Kind == MsgState {
				chunks++
			}
		}
	}
	for round := 0; round < 4*lead.cfg.HeartbeatTicks; round++ {
		for i := 0; i <= round%3; i++ {
			lead.Submit(types.Value(fmt.Sprintf("r%d.%d", round, i)))
		}
		g.pump(nil)
		for _, n := range g.nodes {
			n.Compact(n.CommitFrontier(), []byte("state"))
		}
		held := lead.Drain()
		lead.Tick()
		for _, m := range held {
			g.nodes[m.To].Step(m)
		}
		count(held)
		count(g.pump(nil))
	}
	if lead.SnapshotIndex() < 20 {
		t.Fatalf("the leader compacted only through %d", lead.SnapshotIndex())
	}
	if chunks != 0 {
		t.Fatalf("%d snapshot chunks sent to followers that answer every tick", chunks)
	}
}

// A follower cut off for 2,000 slots of an uncompacted log catches up
// while the leader proposes faster than 64 slots a heartbeat interval —
// what one catch-up answer used to carry: its MsgCatchup rewinds the
// leader's push, which sends up to snapshot.BatchBytes a tick.
func TestFarBehindFollowerCatchesUpUnderWrites(t *testing.T) {
	const (
		behind  = 2000
		perTick = 20 // 100 slots a heartbeat interval
	)
	fab := simnet.NewFabric(simnet.Options{Seed: 5})
	c := runner.New(runner.Config[Message]{Fabric: fab, Dest: Dest, Src: Src, Kind: Kind})
	peers := []types.NodeID{0, 1, 2}
	nodes := make([]*Node, len(peers))
	for i, id := range peers {
		nodes[i] = New(id, Config{Peers: peers, Seed: 5})
		c.Add(id, nodes[i])
	}
	var lead *Node
	if !c.RunUntil(func() bool {
		for _, n := range nodes {
			if n.IsLeader() {
				lead = n
			}
		}
		return lead != nil
	}, 1000) {
		t.Fatal("no leader")
	}
	far := nodes[(lead.id+1)%3]
	c.Crash(far.id)
	write := func(k int) {
		for i := 0; i < k; i++ {
			lead.Submit(types.Value(fmt.Sprintf("w%d", (lead.LastIndex() + 1))))
		}
		c.Step()
	}
	for lead.CommitFrontier() < behind {
		write(perTick)
	}
	c.Restart(far.id)
	healed := lead.CommitFrontier()
	for tick := 1; tick <= 10*lead.cfg.HeartbeatTicks; tick++ {
		write(perTick)
		if far.CommitFrontier() >= healed && lead.CommitFrontier()-far.CommitFrontier() <= 3*perTick {
			t.Logf("frontier %d of %d, %d ticks after the heal", far.CommitFrontier(), lead.CommitFrontier(), tick)
			return
		}
	}
	t.Fatalf("ten heartbeat intervals after the heal, the follower's frontier is %d, the leader's %d (healed at %d)",
		far.CommitFrontier(), lead.CommitFrontier(), healed)
}

// The snapshot's LastTerm is no replica's ballot: two replicas that
// promised different ballots compact slot k with the same state to the
// same bytes, so one snapshot index names one blob.
func TestReplicasCompactASlotToTheSameBytes(t *testing.T) {
	a, b := compactedPair(t, []byte("state"))
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("replicas promised to %v and %v encoded slot %d differently", a.ballot, b.ballot, a.SnapshotIndex())
	}
}

// A transfer that switches sender mid-way — the chunks after the first
// sent by another replica that compacted the same slot, as a new leader
// does — installs without restarting.
func TestStateTransferSwitchesSenderWithoutRestarting(t *testing.T) {
	state := bytes.Repeat([]byte{0xA5}, 3*snapshot.ChunkSize)
	a, b := compactedPair(t, state)
	f := New(3, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 43})
	off := 0
	for i := 0; i < 10; i++ {
		from := a // the first chunk from a, every later one from b
		if i > 0 {
			from = b
			if off == 0 {
				t.Fatalf("chunk %d asked for offset 0: the transfer restarted", i)
			}
		}
		chunk, done := snapshot.ChunkAt(from.Snapshot(), off)
		f.Step(Message{Kind: MsgState, From: from.id, To: f.id, Ballot: from.ballot, Slot: from.SnapshotIndex(),
			Val: types.Value(chunk), Offset: uint32(off), Done: done, Commit: from.CommitFrontier()})
		for _, m := range f.Drain() {
			if m.Kind == MsgStateResp && !m.Done {
				off = int(m.Offset)
			}
		}
		if f.CommitFrontier() == a.SnapshotIndex() {
			if got := f.TakeInstalledSnapshot(); got == nil || !bytes.Equal(got.State, state) {
				t.Fatalf("installed %+v", got)
			}
			return
		}
	}
	t.Fatalf("no install: frontier %d", f.CommitFrontier())
}

// compactedPair returns two followers of a trio that decided three
// slots, the second since promised a higher ballot, each compacted
// through slot 3 with state.
func compactedPair(t *testing.T, state []byte) (a, b *Node) {
	t.Helper()
	g := newTrio(t)
	lead := g.elect(0, nil)
	for i := 0; i < 3; i++ {
		lead.Submit(types.Value{byte(i)})
	}
	g.pump(nil)
	g.heartbeat(lead)
	a, b = g.nodes[1], g.nodes[2]
	b.ballot = b.ballot.Next(2)
	if a.ballot == b.ballot || !a.Compact(3, state) || !b.Compact(3, state) {
		t.Fatalf("setup: ballots %v %v, frontiers %d %d", a.ballot, b.ballot, a.CommitFrontier(), b.CommitFrontier())
	}
	return a, b
}
