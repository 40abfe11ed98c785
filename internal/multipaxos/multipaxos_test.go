package multipaxos

import (
	"fmt"
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

func TestLeaderEmerges(t *testing.T) {
	c := NewCluster(5, nil, Config{Seed: 1}, nil)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader emerged")
	}
	// Exactly one leader once heartbeats settle.
	c.Run(100)
	leaders := 0
	for _, n := range c.Nodes {
		if n.IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d concurrent leaders", leaders)
	}
	// Followers know the leader.
	for _, n := range c.Nodes {
		if !n.IsLeader() && n.Leader() < 0 {
			t.Fatalf("node %v does not know the leader", n.id)
		}
	}
}

func TestReplicateAndApply(t *testing.T) {
	c := NewCluster(3, nil, Config{Seed: 2}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	lead.Submit(req(1, 1, kvstore.Put("k", []byte("v"))))
	lead.Submit(req(1, 2, kvstore.Get("k")))
	replies := c.RunPumped(100)
	if len(replies) < 2 {
		t.Fatalf("got %d replies", len(replies))
	}
	// Find the leader's reply to seq 2.
	found := false
	for _, r := range replies {
		if r.SeqNo == 2 && r.Node == lead.id {
			found = true
			if !r.Result.Equal(types.Value("v")) {
				t.Fatalf("GET returned %q", r.Result)
			}
		}
	}
	if !found {
		t.Fatal("no reply for seq 2 from leader")
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

// A node that does not lead drops a submission: it sends nothing and
// proposes nothing, whether it knows a leader or not. Routing a request
// to the leader is the host's job.
func TestSubmitOffLeaderSendsNothing(t *testing.T) {
	fresh := New(0, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3})
	fresh.Submit(req(7, 1, kvstore.Put("x", []byte("y"))))
	if out := fresh.Drain(); len(out) != 0 || fresh.nextSlot != 1 {
		t.Fatalf("leaderless node sent %+v, next slot %d", out, fresh.nextSlot)
	}
	c := NewCluster(3, nil, Config{Seed: 3}, kvSM)
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
		n.Drain()
		n.Submit(req(7, 1, kvstore.Put("x", []byte("y"))))
		if out := n.Drain(); len(out) != 0 {
			t.Fatalf("follower %v sent %+v", n.id, out)
		}
	}
	if replies := c.RunPumped(150); len(replies) != 0 {
		t.Fatalf("a dropped submission was applied: %+v", replies)
	}
}

func TestLeaderFailover(t *testing.T) {
	c := NewCluster(5, nil, Config{Seed: 5}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	lead.Submit(req(1, 1, kvstore.Put("a", []byte("1"))))
	c.RunPumped(50)
	c.Crash(lead.id)
	// A new leader takes over and the log continues.
	var newLead *Node
	ok := c.RunUntil(func() bool {
		for _, n := range c.Nodes {
			if n.IsLeader() && n.id != lead.id && !c.Crashed(n.id) {
				newLead = n
				return true
			}
		}
		return false
	}, 2000)
	if !ok {
		t.Fatal("no failover")
	}
	newLead.Submit(req(1, 2, kvstore.Put("b", []byte("2"))))
	replies := c.RunPumped(300)
	got2 := false
	for _, r := range replies {
		if r.SeqNo == 2 {
			got2 = true
		}
	}
	if !got2 {
		t.Fatal("post-failover submission never committed")
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryPreservesAcceptedEntries(t *testing.T) {
	// Old leader replicates an entry to a majority then dies before
	// committing; the new leader must re-propose and commit that entry,
	// not lose it.
	fab := simnet.NewFabric(simnet.Options{})
	c := NewCluster(5, fab, Config{Seed: 6}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	// Cut the leader's *incoming* links so it never sees Accepted votes,
	// but its Accepts still go out.
	for _, n := range c.Nodes {
		if n.id != lead.id {
			fab.CutLink(n.id, lead.id)
		}
	}
	v := req(9, 1, kvstore.Put("survivor", []byte("yes")))
	lead.Submit(v)
	c.Run(30) // Accepts delivered, votes blackholed
	c.Crash(lead.id)
	for _, n := range c.Nodes {
		if n.id != lead.id {
			fab.RestoreLink(n.id, lead.id)
		}
	}
	c.RunUntil(func() bool {
		for _, n := range c.Nodes {
			if !c.Crashed(n.id) && n.CommitFrontier() >= 1 {
				return true
			}
		}
		return false
	}, 3000)
	c.Pump()
	// The surviving cluster must have committed the old entry at slot 1.
	committed := false
	for i, n := range c.Nodes {
		if c.Crashed(n.id) {
			continue
		}
		for _, d := range c.Execs()[i].Applied() {
			if d.Val.Equal(v) {
				committed = true
			}
		}
	}
	if !committed {
		t.Fatal("accepted-by-majority entry lost on leader change")
	}
}

func TestSafetyUnderChaos(t *testing.T) {
	// minLive keeps an election quorum up: 3 for a majority of 5, Q1=4
	// for the Flexible pair.
	t.Run("majority", func(t *testing.T) { testSafetyUnderChaos(t, Config{}, 3) })
	t.Run("Q1=4,Q2=2", func(t *testing.T) { testSafetyUnderChaos(t, flex(5, 4, 2), 4) })
}

func testSafetyUnderChaos(t *testing.T, cfg Config, minLive int) {
	for seed := uint64(0); seed < 15; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 6, DropRate: 0.1, DupRate: 0.05, Seed: seed})
		cfg.Seed = seed
		c := NewCluster(5, fab, cfg, kvSM)
		rng := simnet.NewRNG(seed + 1000)
		seq := uint64(0)
		for round := 0; round < 30; round++ {
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
			} else if rng.Bool(0.25) && liveCount(c) > minLive {
				c.Crash(victim)
			}
			if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
	}
}

func liveCount(c *Cluster) int {
	n := 0
	for _, node := range c.Nodes {
		if !c.Crashed(node.id) {
			n++
		}
	}
	return n
}

func TestThroughputManyCommands(t *testing.T) {
	c := NewCluster(3, nil, Config{Seed: 8}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	const total = 200
	for i := 1; i <= total; i++ {
		lead.Submit(req(1, uint64(i), kvstore.Incr("n", 1)))
	}
	c.RunPumped(1500)
	if got := c.Execs()[int(lead.id)].NextSlot(); got < total {
		t.Fatalf("leader applied only %d/%d", got-1, total)
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
	// Final counter value must be exactly total (each Incr applied once).
	store := kvstore.New()
	for _, d := range c.Execs()[int(lead.id)].Applied() {
		r, err := smr.DecodeRequest(d.Val)
		if err == nil {
			store.Apply(r.Op)
		}
	}
	if v, _ := store.Get("n"); string(v) != fmt.Sprint(total) {
		t.Fatalf("counter = %s, want %d", v, total)
	}
}

func TestLaggingFollowerCatchesUp(t *testing.T) {
	fab := simnet.NewFabric(simnet.Options{Seed: 9})
	c := NewCluster(3, fab, Config{Seed: 9}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	var straggler *Node
	for _, n := range c.Nodes {
		if !n.IsLeader() {
			straggler = n
			break
		}
	}
	c.Crash(straggler.id)
	for i := 1; i <= 20; i++ {
		lead.Submit(req(1, uint64(i), kvstore.Incr("n", 1)))
	}
	c.RunPumped(300)
	c.Restart(straggler.id)
	ok := c.RunUntil(func() bool { return straggler.CommitFrontier() >= 20 }, 3000)
	c.Pump()
	if !ok {
		t.Fatalf("straggler frontier = %d, want ≥ 20", straggler.CommitFrontier())
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestSteadyStatePhaseCount(t *testing.T) {
	// Steady state commits in one Accept/Accepted round trip: with
	// 1-tick delays, a submission at tick T commits at the leader by
	// T+2 (accept out, accepted back).
	c := NewCluster(3, nil, Config{Seed: 10}, nil)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	c.Run(5)
	start := c.Now()
	before := lead.CommitFrontier()
	lead.Submit(types.Value("probe"))
	c.RunUntil(func() bool { return lead.CommitFrontier() > before }, 50)
	elapsed := c.Now() - start
	if elapsed > 3 {
		t.Fatalf("steady-state commit took %d ticks, want ≤ 3", elapsed)
	}
}

func TestNoElectionsWhileLeaderHealthy(t *testing.T) {
	c := NewCluster(5, nil, Config{Seed: 11}, nil)
	if c.WaitLeader(500) == nil {
		t.Fatal("no leader")
	}
	base := 0
	for _, n := range c.Nodes {
		base += n.Elections()
	}
	c.Run(1000)
	after := 0
	for _, n := range c.Nodes {
		after += n.Elections()
	}
	if after != base {
		t.Fatalf("elections churned: %d → %d with healthy leader", base, after)
	}
}
