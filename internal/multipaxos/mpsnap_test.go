package multipaxos

import (
	"bytes"
	"testing"

	"fortyconsensus/internal/kvstore"
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
			blobs = append(blobs, n.snapData)
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
	before := lead.nextSlot
	lead.Submit(confVal(snapshot.ConfAdd, 4))
	if lead.nextSlot != before {
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
