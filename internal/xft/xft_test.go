package xft

import (
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

type cluster struct {
	*runner.SMRCluster[Message, *Replica]
}

func newCluster(f int, fabric *simnet.Fabric, cfg Config) *cluster {
	n := 2*f + 1
	cfg.N, cfg.F = n, f
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = NewReplica(types.NodeID(i), cfg)
	}
	rc := runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind}
	return &cluster{runner.NewSMRCluster(rc, reps, func() smr.StateMachine { return kvstore.New() })}
}

func (c *cluster) submit(at types.NodeID, req types.Value) {
	c.Inject(Message{Kind: MsgRequest, From: -1, To: at, Req: req})
}

func (c *cluster) executedEverywhere(seq types.Seq, skip ...types.NodeID) bool {
	for i, rep := range c.Nodes {
		if c.Correct(types.NodeID(i), skip) && rep.ExecutedFrontier() < seq {
			return false
		}
	}
	return true
}

func req(client types.ClientID, seq uint64, cmd kvstore.Command) types.Value {
	return smr.EncodeRequest(types.Request{Client: client, SeqNo: seq, Op: cmd.Encode()})
}

func TestCommonCaseCommit(t *testing.T) {
	c := newCluster(1, nil, Config{})
	c.submit(0, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.executedEverywhere(1) }, 500) {
		t.Fatal("request never executed everywhere")
	}
	st := c.Stats()
	// Agreement traffic confined to the f+1 group; passives learn via
	// updates.
	if st.ByKind["update"] == 0 {
		t.Fatalf("no lazy updates: %v", st.ByKind)
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestSyncGroupMembership(t *testing.T) {
	r := NewReplica(0, Config{N: 5, F: 2})
	g := r.Group(0)
	if len(g) != 3 || g[0] != 0 || g[1] != 1 || g[2] != 2 {
		t.Fatalf("group(0) = %v", g)
	}
	g = r.Group(4)
	if g[0] != 4 || g[1] != 0 || g[2] != 1 {
		t.Fatalf("group(4) = %v", g)
	}
	if !r.InGroup(0, 0) || r.InGroup(3, 0) {
		t.Fatal("InGroup wrong")
	}
}

func TestCommonCaseCheaperThanBFTQuorums(t *testing.T) {
	// f=2: group = 3 of 5; per-request messages stay far below the
	// 3f+1=7-node PBFT equivalent.
	c := newCluster(2, nil, Config{})
	for i := 1; i <= 10; i++ {
		c.submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
	}
	c.RunUntil(func() bool { return c.executedEverywhere(10) }, 2000)
	perReq := float64(c.Stats().Sent) / 10
	if perReq > 15 {
		t.Fatalf("XFT common case costs %.1f msgs/req", perReq)
	}
}

func TestGroupMemberCrashTriggersViewChange(t *testing.T) {
	// Crash a follower in the synchronous group: the leader's slot
	// stalls, suspicion fires, the next group (excluding progress on the
	// crashed node) takes over and the request commits.
	c := newCluster(1, nil, Config{RequestTimeout: 25})
	c.Crash(1) // follower of view 0's group {0,1}
	c.submit(0, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.executedEverywhere(1, 1) }, 4000) {
		t.Fatalf("view change never recovered (views: %d/%d)", c.Nodes[0].View(), c.Nodes[2].View())
	}
	for _, rep := range []*Replica{c.Nodes[0], c.Nodes[2]} {
		if rep.View() == 0 {
			t.Fatalf("replica %v still in view 0", rep.id)
		}
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()[0], c.Execs()[2]); err != nil {
		t.Fatal(err)
	}
}

func TestLeaderCrashRecovery(t *testing.T) {
	c := newCluster(1, nil, Config{RequestTimeout: 25})
	c.Crash(0) // view-0 leader
	c.submit(1, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.executedEverywhere(1, 0) }, 4000) {
		t.Fatal("leader crash never recovered")
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()[1], c.Execs()[2]); err != nil {
		t.Fatal(err)
	}
}

func TestCommittedEntrySurvivesViewChange(t *testing.T) {
	// Commit through group {0,1}, then crash 1: the new group must keep
	// slot 1 — state transfer from f+1 logs intersects the old group.
	c := newCluster(1, nil, Config{RequestTimeout: 25})
	r1 := req(1, 1, kvstore.Put("a", []byte("1")))
	c.submit(0, r1)
	if !c.RunUntil(func() bool { return c.executedEverywhere(1) }, 500) {
		t.Fatal("initial commit failed")
	}
	c.Crash(1)
	c.submit(0, req(1, 2, kvstore.Put("b", []byte("2"))))
	if !c.RunUntil(func() bool { return c.executedEverywhere(2, 1) }, 4000) {
		t.Fatal("post-crash commit failed")
	}
	c.Pump()
	for _, i := range []int{0, 2} {
		applied := c.Execs()[i].Applied()
		if len(applied) < 2 || !applied[0].Val.Equal(r1) {
			t.Fatalf("replica %d lost slot 1: %v", i, applied)
		}
	}
}

func TestSafetyOutsideAnarchy(t *testing.T) {
	// One byzantine replica (m=1 ≤ f) with everyone else well-connected:
	// not anarchy, so correct replicas must stay consistent even while
	// the byzantine node corrupts its outbound traffic.
	c := newCluster(1, nil, Config{RequestTimeout: 30})
	c.Intercept(1, func(m Message) []Message {
		switch m.Kind {
		case MsgCommit, MsgViewChange, MsgUpdate:
			m.Digest[0] ^= 0xFF
		}
		return []Message{m}
	})
	for i := 1; i <= 5; i++ {
		c.submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
		c.RunPumped(300)
		if err := smr.CheckPrefixConsistency(c.Execs()[0], c.Execs()[2]); err != nil {
			t.Fatalf("non-anarchy safety violated: %v", err)
		}
	}
	if !c.executedEverywhere(5, 1) {
		t.Fatalf("byzantine group member blocked progress permanently (frontiers %d/%d)",
			c.Nodes[0].ExecutedFrontier(), c.Nodes[2].ExecutedFrontier())
	}
}

// RunPumpedTicks runs n ticks, pumping decisions each tick.
func (c *cluster) RunPumpedTicks(n int) {
	for i := 0; i < n; i++ {
		c.Step()
		c.Pump()
	}
}

func TestChaosConsistency(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 4, Seed: seed})
		c := newCluster(1, fab, Config{RequestTimeout: 35})
		for i := 1; i <= 10; i++ {
			c.submit(types.NodeID(i%3), req(1, uint64(i), kvstore.Incr("n", 1)))
			c.RunPumped(80)
			if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if !c.executedEverywhere(10) {
			t.Fatalf("seed %d: stalled", seed)
		}
	}
}
