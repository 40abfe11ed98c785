package raft

import (
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

func kvSM() smr.StateMachine { return kvstore.New() }

func req(client types.ClientID, seq uint64, cmd kvstore.Command) types.Value {
	return smr.EncodeRequest(types.Request{Client: client, SeqNo: seq, Op: cmd.Encode()})
}

func TestElectionProducesSingleLeader(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		c := NewCluster(5, nil, Config{Seed: seed}, nil)
		if c.WaitLeader(500) == nil {
			t.Fatalf("seed %d: no leader", seed)
		}
		c.Run(100)
		leaders := map[Term][]types.NodeID{}
		for _, n := range c.Nodes {
			if n.IsLeader() {
				leaders[n.term] = append(leaders[n.term], n.id)
			}
		}
		for term, ids := range leaders {
			if len(ids) > 1 {
				t.Fatalf("seed %d: term %d has %d leaders", seed, term, len(ids))
			}
		}
	}
}

func TestReplicationAndApply(t *testing.T) {
	c := NewCluster(3, nil, Config{Seed: 1}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	lead.Submit(req(1, 1, kvstore.Put("k", []byte("v"))))
	lead.Submit(req(1, 2, kvstore.Get("k")))
	replies := c.RunPumped(150)
	var got types.Value
	for _, r := range replies {
		if r.SeqNo == 2 && r.Node == lead.id {
			got = r.Result
		}
	}
	if !got.Equal(types.Value("v")) {
		t.Fatalf("GET via raft = %q", got)
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckLogMatching(); err != nil {
		t.Fatal(err)
	}
}

// A node that does not lead drops a submission: it sends nothing and
// logs nothing, whether it knows a leader or not. Routing a request to
// the leader is the host's job.
func TestSubmitOffLeaderSendsNothing(t *testing.T) {
	fresh := New(0, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 2})
	fresh.Submit(req(5, 1, kvstore.Put("f", []byte("v"))))
	if out := fresh.Drain(); len(out) != 0 || fresh.LastIndex() != 0 {
		t.Fatalf("leaderless node sent %+v, log at %d", out, fresh.LastIndex())
	}
	c := NewCluster(3, nil, Config{Seed: 2}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	c.Run(20)
	for _, n := range c.Nodes {
		if n.IsLeader() {
			continue
		}
		if n.Leader() != lead.id {
			t.Fatalf("follower %v believes in %v, want %v", n.id, n.Leader(), lead.id)
		}
		last := n.LastIndex()
		n.Drain()
		n.Submit(req(5, 1, kvstore.Put("f", []byte("v"))))
		if out := n.Drain(); len(out) != 0 || n.LastIndex() != last {
			t.Fatalf("follower %v sent %+v, log %d -> %d", n.id, out, last, n.LastIndex())
		}
	}
	if replies := c.RunPumped(150); len(replies) != 0 {
		t.Fatalf("a dropped submission was applied: %+v", replies)
	}
}

func TestLeaderFailover(t *testing.T) {
	c := NewCluster(5, nil, Config{Seed: 3}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	for i := 1; i <= 5; i++ {
		lead.Submit(req(1, uint64(i), kvstore.Incr("n", 1)))
	}
	c.RunPumped(100)
	c.Crash(lead.id)
	var next *Node
	ok := c.RunUntil(func() bool {
		for _, n := range c.Nodes {
			if n.IsLeader() && !c.Crashed(n.id) {
				next = n
				return true
			}
		}
		return false
	}, 2000)
	if !ok {
		t.Fatal("no new leader")
	}
	if next.term <= lead.term {
		t.Fatalf("new leader term %d not past %d", next.term, lead.term)
	}
	next.Submit(req(1, 6, kvstore.Incr("n", 1)))
	replies := c.RunPumped(300)
	found := false
	for _, r := range replies {
		if r.SeqNo == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("post-failover entry not committed")
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestElectionSafetyStaleLogLoses(t *testing.T) {
	// A node with a stale log must not win an election over nodes whose
	// logs are longer (the up-to-date check).
	c := NewCluster(3, nil, Config{Seed: 4}, nil)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	// Isolate one follower, then commit entries on the other two.
	var isolated *Node
	for _, n := range c.Nodes {
		if !n.IsLeader() {
			isolated = n
			break
		}
	}
	c.Crash(isolated.id)
	for i := 0; i < 5; i++ {
		lead.Submit(types.Value("entry"))
	}
	c.RunUntil(func() bool { return lead.CommitFrontier() >= 5 }, 500)
	// Restart the stale node; it may call elections but can never win
	// until it catches up, and committed entries must survive.
	c.Restart(isolated.id)
	c.Run(600)
	if err := c.CheckLogMatching(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if n.IsLeader() && n.CommitFrontier() < 5 {
			t.Fatalf("stale node %v leads with frontier %d", n.id, n.CommitFrontier())
		}
	}
}

func TestLogRepairAfterDivergence(t *testing.T) {
	// Old leader appends uncommitted entries in isolation; after healing
	// the new leader overwrites them (truncation) and logs reconverge.
	fab := simnet.NewFabric(simnet.Options{Seed: 5})
	c := NewCluster(5, fab, Config{Seed: 5}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	c.Run(20)
	// Partition the leader alone; it keeps appending uncommitted junk.
	others := []types.NodeID{}
	for _, n := range c.Nodes {
		if n.id != lead.id {
			others = append(others, n.id)
		}
	}
	fab.Partition([]types.NodeID{lead.id}, others)
	for i := 0; i < 5; i++ {
		lead.Submit(types.Value("orphan"))
	}
	c.Run(100)
	// Majority side elects a new leader and commits real entries.
	var next *Node
	c.RunUntil(func() bool {
		for _, n := range c.Nodes {
			if n.IsLeader() && n.id != lead.id {
				next = n
				return true
			}
		}
		return false
	}, 2000)
	if next == nil {
		t.Fatal("no majority-side leader")
	}
	next.Submit(req(1, 1, kvstore.Put("real", []byte("1"))))
	c.RunUntil(func() bool { return next.CommitFrontier() >= 2 }, 500)
	fab.Heal()
	// Old leader rejoins, truncates orphans, converges.
	c.RunUntil(func() bool { return lead.CommitFrontier() >= next.CommitFrontier() }, 2000)
	c.Pump()
	if err := c.CheckLogMatching(); err != nil {
		t.Fatal(err)
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
	// The orphan entries must not appear in any committed prefix.
	for i := range c.Nodes {
		for _, d := range c.Execs()[i].Applied() {
			if d.Val.Equal(types.Value("orphan")) {
				t.Fatal("uncommitted orphan entry survived")
			}
		}
	}
}

func TestSafetyUnderChaos(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 6, DropRate: 0.1, DupRate: 0.05, Seed: seed})
		c := NewCluster(5, fab, Config{Seed: seed}, kvSM)
		rng := simnet.NewRNG(seed + 2000)
		seq := uint64(0)
		for round := 0; round < 25; round++ {
			// Every live leadership claimant gets the write, as a host
			// does: a deposed leader may still claim the title.
			seq++
			for _, n := range c.Nodes {
				if !c.Crashed(n.id) && n.IsLeader() {
					n.Submit(req(1, seq, kvstore.Incr("n", 1)))
				}
			}
			c.RunPumped(40)
			victim := types.NodeID(rng.Intn(5))
			if c.Crashed(victim) {
				c.Restart(victim)
			} else if rng.Bool(0.25) && live(c) > 3 {
				c.Crash(victim)
			}
			if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if err := c.CheckLogMatching(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
	}
}

func live(c *Cluster) int {
	n := 0
	for _, node := range c.Nodes {
		if !c.Crashed(node.id) {
			n++
		}
	}
	return n
}

func TestSingleNodeCluster(t *testing.T) {
	c := NewCluster(1, nil, Config{Seed: 6}, kvSM)
	lead := c.WaitLeader(200)
	if lead == nil {
		t.Fatal("solo node never led")
	}
	lead.Submit(req(1, 1, kvstore.Put("solo", []byte("1"))))
	replies := c.RunPumped(50)
	if len(replies) != 1 {
		t.Fatalf("solo cluster replies = %d", len(replies))
	}
}

func TestCommittedEntriesNeverTruncated(t *testing.T) {
	// The onAppend truncation guard: constructing a scenario where a
	// leader tries to truncate committed state must be impossible; here
	// we simply assert heavy chaos never triggers the panic (the panic
	// is the assertion).
	for seed := uint64(20); seed < 25; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 10, DropRate: 0.2, Seed: seed})
		c := NewCluster(5, fab, Config{Seed: seed}, nil)
		for i := 0; i < 50; i++ {
			for _, n := range c.Nodes {
				if n.IsLeader() {
					n.Submit(types.Value("x"))
				}
			}
			c.Run(20)
		}
	}
}

func TestNoOpCommitOnElection(t *testing.T) {
	// New leaders append a no-op from their own term, letting them learn
	// the commit frontier without client traffic.
	c := NewCluster(3, nil, Config{Seed: 7}, nil)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	if !c.RunUntil(func() bool { return lead.CommitFrontier() >= 1 }, 200) {
		t.Fatal("no-op never committed")
	}
}

// CheckLogMatching verifies the Log Matching property across all nodes:
// if two logs hold an entry with the same index and term, the logs are
// identical up through that index. Logs are aligned by global index, so
// replicas that compacted different prefixes compare only over the
// range both still hold.
func (c *Cluster) CheckLogMatching() error {
	for i := 0; i < len(c.Nodes); i++ {
		for j := i + 1; j < len(c.Nodes); j++ {
			na, nb := c.Nodes[i], c.Nodes[j]
			lo := max(na.SnapshotIndex(), nb.SnapshotIndex())
			hi := min(na.LastIndex(), nb.LastIndex())
			for k := hi; k > lo; k-- {
				if na.At(k).Term == nb.At(k).Term {
					// Everything at and below k (that both hold) must match.
					for l := lo + 1; l <= k; l++ {
						ea, eb := na.At(l), nb.At(l)
						if ea.Term != eb.Term || !ea.Val.Equal(eb.Val) {
							return &logMatchError{na.id, nb.id}
						}
					}
					break
				}
			}
		}
	}
	return nil
}

type logMatchError struct {
	a, b types.NodeID
}

func (e *logMatchError) Error() string {
	return "raft: log matching violated between " + e.a.String() + " and " + e.b.String()
}
