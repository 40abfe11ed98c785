package multipaxos

import (
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Thresholds other than "a majority of at least two": a quorum of one
// (the leader's own vote decides) and Flexible Paxos pairs.

func flex(n, q1, q2 int) Config {
	return Config{Quorums: quorum.Flexible{N: n, Q1: q1, Q2: q2}}
}

// ledCluster builds an n-node cluster under cfg (any quorum system) and
// waits for a leader.
func ledCluster(t *testing.T, n int, fabric *simnet.Fabric, cfg Config, seed uint64) (*Cluster, *Node) {
	t.Helper()
	cfg.Seed = seed
	c := NewCluster(n, fabric, cfg, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	return c, lead
}

// commits submits one request at lead and reports whether its frontier
// advanced within max ticks.
func commits(c *Cluster, lead *Node, seq uint64, max int) bool {
	before := lead.CommitFrontier()
	lead.Submit(req(1, seq, kvstore.Incr("n", 1)))
	ok := c.RunUntil(func() bool { return lead.CommitFrontier() > before }, max)
	c.Pump()
	return ok
}

func TestSingleMemberGroupLeadsAndCommits(t *testing.T) {
	c, lead := ledCluster(t, 1, nil, Config{}, 60)
	if !commits(c, lead, 1, 50) {
		t.Fatal("a group of one did not commit on its own vote")
	}
	if lead.Elections() != 1 {
		t.Fatalf("%d elections to lead a group of one", lead.Elections())
	}
}

func TestRemoveDownToOneMemberKeepsCommitting(t *testing.T) {
	c, lead := ledCluster(t, 2, nil, Config{}, 61)
	other := c.Nodes[1-int(lead.id)]
	lead.Submit(confVal(snapshot.ConfRemove, other.id))
	// Idle: the removed node is pushed its removal and goes quiet, so
	// the survivor still leads, and its quorum — the next slot is still
	// inside the alpha window — counts the node it removed.
	c.RunPumped(400)
	if len(lead.configs) != 2 || c.WaitLeader(500) != lead {
		t.Fatalf("survivor did not lead again after the removal (configs %v, elections %d)", lead.configs, lead.Elections())
	}
	seq := uint64(0)
	// The window's slots still need both old members' votes.
	for from := lead.configs[1].from; lead.CommitFrontier() < from; {
		seq++
		if !commits(c, lead, seq, 200) {
			t.Fatalf("stalled at slot %d inside the alpha window", lead.CommitFrontier()+1)
		}
	}
	if got := lead.Members(); len(got) != 1 || got[0] != lead.id {
		t.Fatalf("members %v after removing %v", got, other.id)
	}
	c.Crash(other.id)
	for i := 0; i < 5; i++ {
		seq++
		if !commits(c, lead, seq, 200) {
			t.Fatalf("group of one stalled at slot %d", lead.CommitFrontier()+1)
		}
	}
}

func TestInvalidQuorumsRefused(t *testing.T) {
	for _, q := range []quorum.Flexible{
		{N: 5, Q1: 2, Q2: 3}, // Q1+Q2 = N: an election can miss a commit
		{N: 5, Q1: 6, Q2: 1}, // Q1 > N
		{N: 5, Q1: 5},        // Q2 = 0
		{N: 3, Q1: 2, Q2: 2}, // valid, but not for five peers
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted for 5 peers", q.Describe())
				}
			}()
			New(0, Config{Peers: []types.NodeID{0, 1, 2, 3, 4}, Quorums: q})
		}()
	}
}

// Q2=2 of 5 commits with three acceptors down; a majority — spelled as
// the pair Q1=Q2=3 or left to the default — commits with all up and
// stalls with two.
func TestReplicationQuorumDecidesWhoMustBeUp(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		commits bool
	}{
		{"Q1=4,Q2=2", flex(5, 4, 2), true},
		{"Q1=3,Q2=3", flex(5, 3, 3), false},
		{"majority", Config{}, false},
	} {
		c, lead := ledCluster(t, 5, nil, tc.cfg, 62)
		if !commits(c, lead, 1, 200) {
			t.Fatalf("%s: no commit with every node up", tc.name)
		}
		for _, n := range c.Nodes {
			if n != lead && n.id != (lead.id+1)%5 {
				c.Crash(n.id)
			}
		}
		if got := commits(c, lead, 2, 300); got != tc.commits {
			t.Fatalf("%s: commit with 2 of 5 live = %v, want %v", tc.name, got, tc.commits)
		}
	}
}

func TestLeaderChangeRecoversSmallQuorumCommit(t *testing.T) {
	// The FPaxos safety argument: a value chosen by Q2=2 — here the
	// leader and one follower, cut off from the rest — is found by any
	// new leader's Q1=4 phase-1 quorum, because 4+2 > 5.
	c, lead := ledCluster(t, 5, nil, flex(5, 4, 2), 63)
	witness := c.Nodes[(int(lead.id)+1)%5]
	c.Partition([]types.NodeID{lead.id, witness.id})
	v := req(9, 1, kvstore.Put("precious", []byte("yes")))
	lead.Submit(v)
	if !c.RunUntil(func() bool { return lead.CommitFrontier() >= 1 }, 200) {
		t.Fatal("Q2=2 did not commit inside a two-node partition")
	}
	c.Crash(lead.id)
	c.Heal()
	next := c.WaitLeader(3000)
	if next == nil {
		t.Fatal("no new leader (Q1=4 needs all four live nodes)")
	}
	if !c.RunUntil(func() bool { return next.CommitFrontier() >= 1 }, 1000) {
		t.Fatal("new leader never committed slot 1")
	}
	c.Pump()
	if got := c.Execs()[int(next.id)].Applied()[0].Val; !got.Equal(v) {
		t.Fatalf("new leader's slot 1 = %q: the small-quorum commit was lost", got)
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestSmallQ2CommitsPastStragglers(t *testing.T) {
	// F3's claim: with three slow acceptors Q2=2 (leader + the fast one)
	// dodges them, Q2=3 waits out a straggler's round trip. The slow
	// hop stays under the election timeout so nobody suspects the leader.
	latency := func(q2 int) int {
		fab := simnet.NewFabric(simnet.Options{Seed: 9})
		c, lead := ledCluster(t, 5, fab, flex(5, 5-q2+1, q2), 9)
		slow := 0
		for _, n := range c.Nodes {
			if n != lead && slow < 3 {
				fab.SetLinkDelay(lead.id, n.id, 20, 25)
				fab.SetLinkDelay(n.id, lead.id, 20, 25)
				slow++
			}
		}
		start := c.Now()
		if !commits(c, lead, 1, 500) {
			t.Fatalf("Q2=%d: no commit", q2)
		}
		if !lead.IsLeader() {
			t.Fatalf("Q2=%d: leader deposed while measuring", q2)
		}
		return c.Now() - start
	}
	if fast, slow := latency(2), latency(3); fast >= 20 || slow < 40 {
		t.Fatalf("Q2=2 took %d ticks (want < one slow hop), Q2=3 took %d (want ≥ a slow round trip)", fast, slow)
	}
}

func TestPartitionedFollowerCatchesUpOnSmallQuorumCommits(t *testing.T) {
	// With Q2=2 of 5 most followers are not needed for a commit, so one
	// that misses the Commit broadcasts must fetch them on the next
	// heartbeat rather than wait for a vote nobody asks it for.
	c, lead := ledCluster(t, 5, nil, flex(5, 4, 2), 64)
	straggler := c.Nodes[(int(lead.id)+1)%5]
	c.Partition([]types.NodeID{straggler.id})
	for seq := uint64(1); seq <= 8; seq++ {
		if !commits(c, lead, seq, 200) {
			t.Fatalf("commit %d stalled with one follower partitioned", seq)
		}
	}
	if straggler.CommitFrontier() != 0 {
		t.Fatalf("setup: partitioned follower at frontier %d", straggler.CommitFrontier())
	}
	c.Heal()
	// Heal lets the straggler's campaigns out too; whoever leads after,
	// everyone converges on the same eight slots.
	if !c.RunUntil(func() bool { return straggler.CommitFrontier() >= 8 }, 1000) {
		t.Fatalf("healed follower stuck at frontier %d of 8", straggler.CommitFrontier())
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestFlexiblePairRefusesMembershipChange(t *testing.T) {
	// Q1+Q2 > N is an argument about one N; the pair is not re-derived
	// per epoch, so the proposer drops the change.
	c, lead := ledCluster(t, 3, nil, flex(3, 2, 2), 65)
	lead.Submit(confVal(snapshot.ConfAdd, 3))
	c.RunPumped(100)
	if lead.CommitFrontier() != 0 || len(lead.Members()) != 3 {
		t.Fatalf("conf change went through under a fixed pair: frontier %d, members %v", lead.CommitFrontier(), lead.Members())
	}
}
