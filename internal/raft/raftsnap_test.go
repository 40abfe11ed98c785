package raft

import (
	"bytes"
	"fmt"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/types/valuetest"
)

func confVal(op snapshot.ConfOp, node types.NodeID) types.Value {
	return snapshot.EncodeConfChange(snapshot.ConfChange{Op: op, Node: node})
}

// shuttle delivers every drained message between nodes until quiescent
// or maxRounds, calling drop (if non-nil) to decide per-message loss.
// Ticks interleave so heartbeats fire.
func shuttle(nodes map[types.NodeID]*Node, maxRounds int, drop func(Message) bool) {
	for r := 0; r < maxRounds; r++ {
		var pending []Message
		for _, n := range nodes {
			pending = append(pending, n.Drain()...)
		}
		if len(pending) == 0 {
			for _, n := range nodes {
				n.Tick()
			}
			continue
		}
		for _, m := range pending {
			if drop != nil && drop(m) {
				continue
			}
			if to, ok := nodes[m.To]; ok {
				to.Step(m)
			}
		}
	}
}

// soloLeader builds a single-member node and elects it.
func soloLeader(t *testing.T, id types.NodeID) *Node {
	t.Helper()
	n := New(id, Config{Peers: []types.NodeID{id}, Seed: 11})
	for i := 0; i < 100 && !n.IsLeader(); i++ {
		n.Tick()
	}
	if !n.IsLeader() {
		t.Fatal("single-member node failed to elect itself")
	}
	n.Drain()
	return n
}

func TestCompactBounds(t *testing.T) {
	n := soloLeader(t, 0)
	for i := 1; i <= 5; i++ {
		n.Submit(types.Value{byte(i)})
	}
	n.TakeDecisions()
	if n.Compact(n.CommitFrontier()+1, nil) {
		t.Fatal("compacted past the applied frontier")
	}
	// Snapshot index exactly at the commit index is the boundary case:
	// the whole log folds away and only the sentinel remains.
	if !n.Compact(n.CommitFrontier(), []byte("s")) {
		t.Fatal("compaction at the commit frontier refused")
	}
	if n.SnapshotIndex() != n.CommitFrontier() || len(n.Log()) != 1 {
		t.Fatalf("snapIndex=%d commit=%d loglen=%d", n.SnapshotIndex(), n.CommitFrontier(), len(n.Log()))
	}
	// The node keeps working past the boundary.
	n.Submit(types.Value("after"))
	n.TakeDecisions()
	if n.lastIndex() != n.SnapshotIndex()+1 {
		t.Fatalf("lastIndex=%d snapIndex=%d", n.lastIndex(), n.SnapshotIndex())
	}
	if n.Compact(n.SnapshotIndex(), nil) {
		t.Fatal("re-compacting at the same index should be a no-op")
	}
}

func TestAddNodeCatchesUpViaSnapshot(t *testing.T) {
	lead := soloLeader(t, 0)
	for i := 1; i <= 30; i++ {
		lead.Submit(types.Value{byte(i)})
	}
	lead.TakeDecisions()
	state := []byte("application state at compaction")
	if !lead.Compact(lead.CommitFrontier(), state) {
		t.Fatal("compact")
	}

	// Admit node 1: the config entry takes effect at append time, so the
	// very next heartbeat round replicates to it — and since the entire
	// log below the conf entry is compacted, catch-up must go through
	// InstallSnapshot, not entry replay.
	lead.Submit(confVal(snapshot.ConfAdd, 1))
	joiner := New(1, Config{Peers: []types.NodeID{0, 1}, Passive: true, Seed: 12})
	nodes := map[types.NodeID]*Node{0: lead, 1: joiner}

	var snapMsgs, appendEntries int
	shuttle(nodes, 300, func(m Message) bool {
		if m.Kind == MsgSnap {
			snapMsgs++
		}
		if m.Kind == MsgAppend {
			appendEntries += len(m.Entries)
		}
		return false
	})

	if snapMsgs == 0 {
		t.Fatal("joiner caught up without any InstallSnapshot traffic")
	}
	snap := joiner.TakeInstalledSnapshot()
	if snap == nil {
		t.Fatal("joiner never surfaced an installed snapshot")
	}
	if !bytes.Equal(snap.State, state) {
		t.Fatalf("installed state %q, want %q", snap.State, state)
	}
	if joiner.TakeInstalledSnapshot() != nil {
		t.Fatal("TakeInstalledSnapshot did not drain")
	}
	if joiner.CommitFrontier() != lead.CommitFrontier() {
		t.Fatalf("joiner commit %d, leader %d", joiner.CommitFrontier(), lead.CommitFrontier())
	}
	if got := joiner.Members(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("joiner members %v", got)
	}
	// The joiner replayed only the suffix: far fewer entries than the
	// 30 committed before compaction.
	if appendEntries > 10 {
		t.Fatalf("joiner replayed %d entries; snapshot should have covered the prefix", appendEntries)
	}
}

func TestSnapshotChunkLossResumesAtOffset(t *testing.T) {
	lead := soloLeader(t, 0)
	// A state blob spanning many chunks with a tiny chunk size.
	lead.cfg.SnapChunk = 16
	big := bytes.Repeat([]byte("0123456789abcdef"), 8)
	for i := 1; i <= 4; i++ {
		lead.Submit(types.Value{byte(i)})
	}
	lead.TakeDecisions()
	if !lead.Compact(lead.CommitFrontier(), big) {
		t.Fatal("compact")
	}
	lead.Submit(confVal(snapshot.ConfAdd, 1))
	joiner := New(1, Config{Peers: []types.NodeID{0, 1}, Passive: true, Seed: 13})
	nodes := map[types.NodeID]*Node{0: lead, 1: joiner}

	dropped := -1
	var afterDrop []int // offsets sent after the loss
	shuttle(nodes, 400, func(m Message) bool {
		if m.Kind != MsgSnap {
			return false
		}
		if dropped < 0 && m.Offset > 0 {
			dropped = int(m.Offset)
			return true // lose exactly one mid-transfer chunk
		}
		if dropped >= 0 {
			afterDrop = append(afterDrop, int(m.Offset))
		}
		return false
	})
	if dropped < 0 {
		t.Fatal("transfer finished in a single chunk; test needs a multi-chunk snapshot")
	}
	snap := joiner.TakeInstalledSnapshot()
	if snap == nil || !bytes.Equal(snap.State, big) {
		t.Fatal("joiner did not install the full snapshot after chunk loss")
	}
	// Resume, don't restart: the retransmission picks up at the lost
	// chunk's offset, never back at zero.
	for _, off := range afterDrop {
		if off < dropped {
			t.Fatalf("transfer restarted at offset %d after losing offset %d", off, dropped)
		}
	}
}

func TestSnapshotOverridesConflictingSuffix(t *testing.T) {
	// A follower holding an uncommitted suffix below the leader's
	// snapshot index must discard it wholesale on InstallSnapshot.
	f := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 14})
	f.Step(Message{Kind: MsgAppend, From: 0, To: 1, Term: 1, Entries: []LogEntry{
		{Term: 1, Val: types.Value("stale-1")},
		{Term: 1, Val: types.Value("stale-2")},
		{Term: 1, Val: types.Value("stale-3")},
	}})
	f.Drain()
	if f.lastIndex() != 3 || f.CommitFrontier() != 0 {
		t.Fatalf("setup: last=%d commit=%d", f.lastIndex(), f.CommitFrontier())
	}
	raw := snapshot.Encode(snapshot.Snapshot{
		LastIndex: 5, LastTerm: 2,
		Members: []types.NodeID{0, 1, 2}, State: []byte("winner"),
	})
	f.Step(Message{Kind: MsgSnap, From: 0, To: 1, Term: 2,
		PrevIndex: 5, PrevTerm: 2, Val: types.Value(raw), Offset: 0, Done: true})
	if f.SnapshotIndex() != 5 || f.lastIndex() != 5 || f.CommitFrontier() != 5 {
		t.Fatalf("post-install: snap=%d last=%d commit=%d", f.SnapshotIndex(), f.lastIndex(), f.CommitFrontier())
	}
	if snap := f.TakeInstalledSnapshot(); snap == nil || !bytes.Equal(snap.State, []byte("winner")) {
		t.Fatal("install not surfaced")
	}
	// The ack reports the installed index so the leader resumes there.
	out := f.Drain()
	var acked bool
	for _, m := range out {
		if m.Kind == MsgSnapResp && m.Done && m.MatchIndex == 5 {
			acked = true
		}
	}
	if !acked {
		t.Fatalf("no install ack in %v", out)
	}
}

func TestInstallSnapshotDuringInflightAppend(t *testing.T) {
	// An AppendEntries that was in flight when the snapshot installed
	// arrives with PrevIndex below the new snapshot index. The follower
	// must trim the stale prefix instead of panicking or regressing.
	f := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 15})
	var g valuetest.Guard
	inflight := []LogEntry{
		{Term: 1, Val: g.Publish("e1", types.Value("one"))},
		{Term: 1, Val: g.Publish("e2", types.Value("two"))},
	}
	raw := snapshot.Encode(snapshot.Snapshot{
		LastIndex: 4, LastTerm: 1,
		Members: []types.NodeID{0, 1, 2}, State: []byte("s4"),
	})
	f.Step(Message{Kind: MsgSnap, From: 0, To: 1, Term: 1,
		PrevIndex: 4, PrevTerm: 1, Val: types.Value(raw), Offset: 0, Done: true})
	f.Drain()

	// Entirely-below-snapshot append: acknowledged at the boundary.
	f.Step(Message{Kind: MsgAppend, From: 0, To: 1, Term: 1, Entries: inflight})
	for _, m := range f.Drain() {
		if m.Kind == MsgAppendResp && (!m.Success || m.MatchIndex != 4) {
			t.Fatalf("stale append not absorbed at boundary: %+v", m)
		}
	}
	if f.lastIndex() != 4 {
		t.Fatalf("stale append changed the log: last=%d", f.lastIndex())
	}

	// Straddling append: the prefix at or below the snapshot trims away
	// and only the suffix appends.
	straddle := []LogEntry{
		{Term: 1, Val: g.Publish("e3", types.Value("three"))}, // index 3: covered
		{Term: 1, Val: g.Publish("e4", types.Value("four"))},  // index 4: covered
		{Term: 1, Val: g.Publish("e5", types.Value("five"))},  // index 5: new
	}
	f.Step(Message{Kind: MsgAppend, From: 0, To: 1, Term: 1,
		PrevIndex: 2, PrevTerm: 1, Entries: straddle, LeaderCommit: 5})
	f.Drain()
	if f.lastIndex() != 5 || f.CommitFrontier() != 5 {
		t.Fatalf("straddling append: last=%d commit=%d", f.lastIndex(), f.CommitFrontier())
	}
	if got := f.at(5).Val; !got.Equal(types.Value("five")) {
		t.Fatalf("index 5 = %q", got)
	}
	// The loaned batch stays the sender's; published bytes stay intact.
	valuetest.Poison(straddle, LogEntry{Term: 9, Val: types.Value("poison")})
	if got := f.at(5).Val; !got.Equal(types.Value("five")) {
		t.Fatal("follower retained the loaned straddling batch")
	}
	f.TakeDecisions()
	g.Check(t)
}

func TestMembershipRemoveAndLeaderStepDown(t *testing.T) {
	c := NewCluster(3, nil, Config{Seed: 21}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	// Remove a follower; the two survivors keep committing.
	var gone *Node
	for _, n := range c.Nodes {
		if n != lead {
			gone = n
			break
		}
	}
	lead.Submit(confVal(snapshot.ConfRemove, gone.id))
	c.RunPumped(100)
	if got := lead.Members(); len(got) != 2 {
		t.Fatalf("members after remove: %v", got)
	}
	lead.Submit(req(1, 1, kvstore.Put("k", []byte("v"))))
	replies := c.RunPumped(150)
	if len(replies) == 0 {
		t.Fatal("2-member cluster stopped committing")
	}

	// Remove the leader: it must step down once the entry commits, and
	// the survivor wins the next election. The runner drains a node after
	// every Step, so the tap sees exactly what each Step left in Drain: a
	// node that has stepped down sends nothing a leader sends.
	var afterStepDown []Message
	c.Intercept(lead.id, func(m Message) []Message {
		if !lead.IsLeader() && (m.Kind == MsgAppend || m.Kind == MsgSnap) {
			afterStepDown = append(afterStepDown, m)
		}
		return []Message{m}
	})
	lead.Submit(confVal(snapshot.ConfRemove, lead.id))
	var next *Node
	ok := c.RunUntil(func() bool {
		for _, n := range c.Nodes {
			if n.IsLeader() && n != lead && n != gone {
				next = n
				return true
			}
		}
		return false
	}, 3000)
	if !ok {
		t.Fatal("no successor leader after leader self-removal")
	}
	if lead.IsLeader() {
		t.Fatal("removed leader still leads")
	}
	if len(afterStepDown) > 0 {
		t.Fatalf("stepped-down node sent %v: %+v", afterStepDown[0].Kind, afterStepDown[0])
	}
	if got := next.Members(); len(got) != 1 || got[0] != next.id {
		t.Fatalf("successor members: %v", got)
	}
	// The removed nodes never disrupt the survivor.
	c.Run(500)
	if !next.IsLeader() {
		t.Fatal("survivor lost leadership to a removed node")
	}
}

func TestConfChangeValidation(t *testing.T) {
	// Leader of {0,1,2} with a quorum partner so conf entries stay
	// uncommitted until acked.
	n := New(0, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 22})
	for i := 0; i < 100 && n.role != candidate; i++ {
		n.Tick()
	}
	n.Step(Message{Kind: MsgVote, From: 1, To: 0, Term: n.term, Granted: true})
	if !n.IsLeader() {
		t.Fatal("setup: no leader")
	}
	n.Drain()
	base := n.lastIndex()
	n.Submit(confVal(snapshot.ConfAdd, 3)) // in flight, uncommitted
	if n.lastIndex() != base+1 {
		t.Fatal("valid conf change not appended")
	}
	for name, v := range map[string]types.Value{
		"second change while one is in flight": confVal(snapshot.ConfAdd, 4),
		"adding an existing member":            confVal(snapshot.ConfRemove, 3), // 3 is now a member; still rejected: one in flight
	} {
		n.Submit(v)
		if n.lastIndex() != base+1 {
			t.Fatalf("%s was appended", name)
		}
	}
	if got := n.Members(); len(got) != 4 {
		t.Fatalf("members with in-flight add: %v", got)
	}

	solo := soloLeader(t, 7)
	solo.Submit(confVal(snapshot.ConfRemove, 7))
	if len(solo.Members()) != 1 {
		t.Fatal("removed the last member")
	}
	solo.Submit(confVal(snapshot.ConfAdd, 7))
	if solo.lastIndex() != 1 { // just the election no-op
		t.Fatal("no-op add of an existing member was appended")
	}
}

func TestConfChangeRevertsOnTruncation(t *testing.T) {
	f := New(2, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 23})
	// Term-1 leader appends an uncommitted conf entry adding node 3.
	f.Step(Message{Kind: MsgAppend, From: 0, To: 2, Term: 1, Entries: []LogEntry{
		{Term: 1, Val: types.Value("a")},
		{Term: 1, Val: confVal(snapshot.ConfAdd, 3)},
	}})
	f.Drain()
	if got := f.Members(); len(got) != 4 {
		t.Fatalf("conf entry not applied at append: %v", got)
	}
	// A term-2 leader that never saw the conf entry overwrites it.
	f.Step(Message{Kind: MsgAppend, From: 1, To: 2, Term: 2,
		PrevIndex: 1, PrevTerm: 1, Entries: []LogEntry{{Term: 2, Val: types.Value("b")}}})
	f.Drain()
	if got := f.Members(); len(got) != 3 {
		t.Fatalf("truncated conf entry not reverted: %v", got)
	}
}

func TestClusterCompactionCatchUpWithExecutors(t *testing.T) {
	c := NewCluster(3, nil, Config{Seed: 31}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	var straggler *Node
	for _, n := range c.Nodes {
		if n != lead {
			straggler = n
			break
		}
	}
	c.Partition([]types.NodeID{straggler.id})
	seq := uint64(0)
	for i := 0; i < 40; i++ {
		seq++
		lead.Submit(req(1, seq, kvstore.Incr("n", 1)))
	}
	c.RunPumped(200)
	// Compact the connected replicas at their applied frontiers.
	for i, n := range c.Nodes {
		if n == straggler {
			continue
		}
		if !c.Reps[i].Compact() {
			t.Fatalf("node %v: compact refused", n.id)
		}
	}
	c.Heal()
	c.RunPumped(400)
	if straggler.CommitFrontier() != lead.CommitFrontier() {
		t.Fatalf("straggler commit %d, leader %d", straggler.CommitFrontier(), lead.CommitFrontier())
	}
	if straggler.SnapshotIndex() == 0 {
		t.Fatal("straggler caught up without installing a snapshot")
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckLogMatching(); err != nil {
		t.Fatal(err)
	}
	// All replicas agree on the application state.
	var digest string
	for i := range c.Nodes {
		d := fmt.Sprintf("%x", c.Execs()[i].SnapshotState())
		if digest == "" {
			digest = d
		} else if d != digest {
			t.Fatalf("replica %d state diverged", i)
		}
	}
}

func TestPersisterSnapshotThenSuffix(t *testing.T) {
	dir := t.TempDir()
	p := openPersister(t, dir)
	n := soloLeader(t, 0)
	for i := 1; i <= 10; i++ {
		n.Submit(types.Value{byte(i)})
	}
	n.TakeDecisions()
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	if !n.Compact(8, []byte("state@8")) {
		t.Fatal("compact")
	}
	n.Submit(confVal(snapshot.ConfAdd, 9))
	n.Submit(types.Value("suffix"))
	n.TakeDecisions()
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}

	p2 := openPersister(t, dir)
	fresh := New(0, n.cfg)
	if err := p2.Restore(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.SnapshotIndex() != 8 {
		t.Fatalf("restored snapIndex %d, want 8", fresh.SnapshotIndex())
	}
	if fresh.lastIndex() != n.lastIndex() || fresh.term != n.term {
		t.Fatalf("restored last=%d term=%d, want %d/%d", fresh.lastIndex(), fresh.term, n.lastIndex(), n.term)
	}
	for i := types.Seq(9); i <= n.lastIndex(); i++ {
		if fresh.at(i).Term != n.at(i).Term || !fresh.at(i).Val.Equal(n.at(i).Val) {
			t.Fatalf("suffix entry %d differs", i)
		}
	}
	// The conf entry in the suffix re-applied during replay.
	if got := fresh.Members(); len(got) != 2 || got[1] != 9 {
		t.Fatalf("restored members %v", got)
	}
	// The snapshot's application payload surfaces for the host.
	snap := fresh.TakeInstalledSnapshot()
	if snap == nil || !bytes.Equal(snap.State, []byte("state@8")) {
		t.Fatal("restored snapshot state not surfaced")
	}
	// A second restore cycle after more writes keeps working (the WAL
	// pruned its journal when the snapshot was written).
	if err := p2.Sync(fresh); err != nil {
		t.Fatal(err)
	}
}
