package multipaxos

import (
	"bytes"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

func confVal(op snapshot.ConfOp, node types.NodeID) types.Value {
	return snapshot.EncodeConfChange(snapshot.ConfChange{Op: op, Node: node})
}

func TestCompactAndStateTransferCatchUp(t *testing.T) {
	t.Run("majority", func(t *testing.T) { testCompactAndStateTransferCatchUp(t, Config{Seed: 41}) })
	// Q2=1: the leader commits alone, so both followers may trail what
	// it compacts.
	t.Run("Q1=3,Q2=1", func(t *testing.T) {
		cfg := flex(3, 3, 1)
		cfg.Seed = 41
		testCompactAndStateTransferCatchUp(t, cfg)
	})
}

func testCompactAndStateTransferCatchUp(t *testing.T, cfg Config) {
	c := NewCluster(3, nil, cfg, kvSM)
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
	for i, n := range c.Nodes {
		if n == straggler {
			continue
		}
		if !c.Reps[i].Compact() {
			t.Fatalf("node %v: compact refused", n.id)
		}
		if upTo := c.Reps[i].Exec().NextSlot() - 1; n.SnapshotIndex() != upTo {
			t.Fatalf("node %v: compact frontier %d, want %d", n.id, n.SnapshotIndex(), upTo)
		}
	}
	// Two replicas compacted at the same frontier hold identical bytes.
	var blobs [][]byte
	for _, n := range c.Nodes {
		if n != straggler {
			blobs = append(blobs, n.Snapshot())
		}
	}
	if len(blobs) == 2 && !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("compaction snapshots differ across replicas at the same frontier")
	}
	c.Heal()
	c.RunPumped(500)
	if straggler.CommitFrontier() != lead.CommitFrontier() {
		t.Fatalf("straggler commit %d, leader %d", straggler.CommitFrontier(), lead.CommitFrontier())
	}
	if straggler.SnapshotIndex() == 0 {
		t.Fatal("straggler caught up without a state transfer (compacted slots should be unreachable)")
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestCompactBoundsAndPendingEpoch(t *testing.T) {
	c := NewCluster(3, nil, Config{Seed: 42}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	lead.Submit(req(1, 1, kvstore.Put("k", []byte("v"))))
	c.RunPumped(100)
	if lead.Compact(lead.CommitFrontier()+1, nil) {
		t.Fatal("compacted past the commit frontier")
	}
	// A chosen-but-not-yet-active config blocks compaction above its
	// choose slot: the snapshot's single member set cannot encode the
	// pending switch.
	lead.Submit(confVal(snapshot.ConfAdd, 9))
	c.RunPumped(100)
	if len(lead.configs) < 2 {
		t.Fatal("setup: epoch not scheduled")
	}
	chooseSlot := lead.configs[len(lead.configs)-1].from - Alpha
	if lead.Compact(lead.CommitFrontier(), nil) {
		t.Fatal("compacted across a pending epoch")
	}
	if lead.Compact(chooseSlot, nil) {
		t.Fatal("compacted the pending epoch's conf entry away")
	}
	if !lead.Compact(chooseSlot-1, []byte("ok")) {
		t.Fatalf("compaction below the pending epoch (upTo=%d) refused", chooseSlot-1)
	}
}

func TestConfChangeEffectiveAtAlpha(t *testing.T) {
	c := NewCluster(3, nil, Config{Seed: 43}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	lead.Submit(confVal(snapshot.ConfAdd, 3))
	c.RunPumped(100)
	ep := lead.configs[len(lead.configs)-1]
	if len(ep.members) != 4 {
		t.Fatalf("scheduled epoch members %v", ep.members)
	}
	if ep.from != ep.from/1*1 || ep.from <= lead.CommitFrontier()-types.Seq(0) && ep.from-Alpha > lead.CommitFrontier() {
		t.Fatalf("epoch from %d not choose-slot+%d", ep.from, Alpha)
	}
	// Slots below the activation point still use the old 3-member
	// quorum; slots at or above it need 3 of 4.
	if _, q := lead.quorumsFor(ep.from - 1); q != 2 {
		t.Fatalf("pre-activation quorum %d, want 2", q)
	}
	if _, q := lead.quorumsFor(ep.from); q != 3 {
		t.Fatalf("post-activation quorum %d, want 3", q)
	}
	// A second change is refused while this one's epoch is pending.
	before := lead.LastIndex() + 1
	lead.Submit(confVal(snapshot.ConfAdd, 4))
	if (lead.LastIndex() + 1) != before {
		t.Fatal("overlapping conf change proposed")
	}
	// Every replica scheduled the identical epoch.
	c.RunPumped(50)
	for _, n := range c.Nodes {
		got := n.configs[len(n.configs)-1]
		if got.from != ep.from || len(got.members) != 4 {
			t.Fatalf("node %v epoch (%d,%v) != leader (%d,%v)", n.id, got.from, got.members, ep.from, ep.members)
		}
	}
}

func TestJoinerCatchesUpThroughSnapshotAndCommits(t *testing.T) {
	c := NewCluster(3, nil, Config{Seed: 44}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	seq := uint64(0)
	for i := 0; i < 30; i++ {
		seq++
		lead.Submit(req(1, seq, kvstore.Incr("n", 1)))
	}
	c.RunPumped(200)
	leadIdx := -1
	for i, n := range c.Nodes {
		if n == lead {
			leadIdx = i
		}
	}
	if !c.Reps[leadIdx].Compact() {
		t.Fatal("compact")
	}

	// Admit node 3 as a passive joiner wired into the same runner.
	joiner := New(3, Config{Peers: []types.NodeID{0, 1, 2, 3}, Passive: true, Seed: 45})
	c.Set(3, joiner, kvstore.New())
	jexec := c.Reps[3].Exec()
	lead.Submit(confVal(snapshot.ConfAdd, 3))
	c.RunPumped(600)

	if joiner.CommitFrontier() != lead.CommitFrontier() {
		t.Fatalf("joiner commit %d, leader %d", joiner.CommitFrontier(), lead.CommitFrontier())
	}
	if joiner.SnapshotIndex() == 0 {
		t.Fatal("joiner caught up without installing the state-transfer snapshot")
	}
	if got := joiner.Members(); len(got) != 4 {
		t.Fatalf("joiner members %v", got)
	}
	// The joiner's executor matches the leader's, byte for byte.
	if !bytes.Equal(jexec.SnapshotState(), c.Execs()[leadIdx].SnapshotState()) {
		t.Fatal("joiner application state diverged")
	}
	// And it participates: new commits still flow with 4 members.
	seq++
	lead.Submit(req(1, seq, kvstore.Incr("n", 1)))
	replies := c.RunPumped(200)
	if len(replies) == 0 {
		t.Fatal("4-member cluster stopped committing")
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

// stateTransfer brings replica 2 of a 3-node cluster back after 0 and 1
// compacted their logs into a snapshot carrying stateLen state bytes,
// over links of 1–3 ticks that drop and duplicate at the given rates;
// lose, if set, may drop any message a replica sends. With writes, the
// leader proposes a value every tick of the transfer and 0 and 1 try to
// compact through their frontier, as hosts under load do. It returns
// the MsgState frames sent after the restart, the largest chunk one
// carried, the ticks until 2 installed, and the state it installed.
func stateTransfer(t *testing.T, stateLen int, drop, dup float64, lose func(Message) bool, writes bool) (frames, maxChunk, ticks int, state []byte) {
	t.Helper()
	fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 3, Seed: 7})
	c := runner.New(runner.Config[Message]{Fabric: fab, Dest: Dest, Src: Src, Kind: Kind})
	peers := []types.NodeID{0, 1, 2}
	nodes := make([]*Node, len(peers))
	for i, id := range peers {
		nodes[i] = New(id, Config{Peers: peers, Seed: 7})
		c.Add(id, nodes[i])
		c.Intercept(id, func(m Message) []Message {
			if m.Kind == MsgState {
				frames++
				maxChunk = max(maxChunk, len(m.Val))
			}
			if lose != nil && lose(m) {
				return nil
			}
			return []Message{m}
		})
	}
	c.Crash(2)
	var lead *Node
	if !c.RunUntil(func() bool {
		lead = nodes[0]
		if !lead.IsLeader() {
			lead = nodes[1]
		}
		return lead.IsLeader()
	}, 1000) {
		t.Fatal("no leader")
	}
	for i := 1; i <= 8; i++ {
		lead.Submit(types.Value{byte(i)})
	}
	c.Run(50)
	want := bytes.Repeat([]byte{0xA5}, stateLen)
	for _, n := range nodes[:2] {
		if !n.Compact(n.CommitFrontier(), want) {
			t.Fatalf("node %v: compact refused", n.id)
		}
	}
	fab.SetDropRate(drop)
	fab.SetDupRate(dup)
	frames, maxChunk = 0, 0
	start := c.Now()
	c.Restart(2)
	var snap *snapshot.Snapshot
	if !c.RunUntil(func() bool {
		if writes {
			lead.Submit(types.Value("w"))
			for _, n := range nodes[:2] {
				n.Compact(n.CommitFrontier(), want)
			}
		}
		snap = nodes[2].TakeInstalledSnapshot()
		return snap != nil
	}, 100*(stateLen/snapshot.ChunkSize)+1000) {
		t.Fatalf("%d state bytes, drop %v, dup %v: no install after %d ticks and %d frames", stateLen, drop, dup, c.Now()-start, frames)
	}
	return frames, maxChunk, c.Now() - start, snap.State
}

// A snapshot larger than the live transport's frame limit (16 MiB,
// live.DefaultMaxFrame) moves in ChunkSize pieces, one chain of them:
// each chunk once, plus at most one per heartbeat.
func TestStateTransferIsChunkedAndLinear(t *testing.T) {
	stateLen := 16<<20 + snapshot.ChunkSize
	frames, maxChunk, ticks, state := stateTransfer(t, stateLen, 0, 0, nil, false)
	chunks := stateLen/snapshot.ChunkSize + 1 // plus the snapshot's header bytes
	t.Logf("%d chunks: %d MsgState frames, installed after %d ticks", chunks, frames, ticks)
	if maxChunk > snapshot.ChunkSize {
		t.Fatalf("a MsgState carried %d bytes, over the %d-byte chunk", maxChunk, snapshot.ChunkSize)
	}
	if !bytes.Equal(state, bytes.Repeat([]byte{0xA5}, stateLen)) {
		t.Fatalf("installed %d state bytes, not the leader's %d", len(state), stateLen)
	}
	if bound := chunks + ticks/5 + 8; frames > bound {
		t.Fatalf("%d chunks over %d ticks took %d MsgState frames, want at most %d", chunks, ticks, frames, bound)
	}
}

// The twin of raft's TestSnapshotChunkLossResumesAtOffset: one lost
// chunk is asked for again at its offset, never from zero, and a
// transfer installs whatever drops and duplicates it meets.
func TestStateTransferChunkLossResumesAtOffset(t *testing.T) {
	dropped := -1
	var afterDrop []int // offsets sent after the loss
	stateTransfer(t, 3*snapshot.ChunkSize, 0, 0, func(m Message) bool {
		if m.Kind != MsgState {
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
	}, false)
	if dropped < 0 {
		t.Fatal("transfer finished in a single chunk; test needs a multi-chunk snapshot")
	}
	for _, off := range afterDrop {
		if off < dropped {
			t.Fatalf("transfer restarted at offset %d after losing offset %d", off, dropped)
		}
	}
	for _, chunks := range []int{1, 4, 64, 256} {
		stateLen := (chunks-1)*snapshot.ChunkSize + 1
		frames, _, ticks, state := stateTransfer(t, stateLen, 0.1, 0.1, nil, false)
		t.Logf("%d chunks: %d MsgState frames, installed after %d ticks", chunks, frames, ticks)
		if !bytes.Equal(state, bytes.Repeat([]byte{0xA5}, stateLen)) {
			t.Fatalf("%d chunks: installed %d state bytes, not the leader's %d", chunks, len(state), stateLen)
		}
	}
}

// A replica serving a snapshot compacts nothing until the transfer ends:
// a compaction would name a new snapshot and start the transfer over, so
// under steady writes a transfer longer than the compaction cadence
// would never finish. Raft's TestSnapshotTransferSurvivesCompaction on
// the same core.
func TestStateTransferSurvivesCompaction(t *testing.T) {
	stateLen := 64 * snapshot.ChunkSize
	frames, _, ticks, state := stateTransfer(t, stateLen, 0, 0, nil, true)
	t.Logf("%d state bytes under writes: %d MsgState frames, installed after %d ticks", stateLen, frames, ticks)
	if !bytes.Equal(state, bytes.Repeat([]byte{0xA5}, stateLen)) {
		t.Fatalf("installed %d state bytes, not the leader's %d", len(state), stateLen)
	}
	chunks := stateLen/snapshot.ChunkSize + 1
	if bound := chunks + ticks/5 + 8; frames > bound {
		t.Fatalf("%d chunks over %d ticks took %d MsgState frames, want at most %d: the transfer started over", chunks, ticks, frames, bound)
	}
}
