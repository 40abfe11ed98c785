package paxos

import (
	"testing"

	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

func TestSingleProposerDecides(t *testing.T) {
	c := NewCluster(5, nil, Config{})
	c.Nodes[0].Propose(types.Value("alpha"))
	if !c.RunUntil(c.AllDecided, 500) {
		t.Fatal("cluster never decided")
	}
	v, ok := c.Agreement()
	if !ok || !v.Equal(types.Value("alpha")) {
		t.Fatalf("agreement = %q/%v", v, ok)
	}
}

func TestTwoPhasesOnCleanPath(t *testing.T) {
	// The fact box: 2 phases. With uniform 1-tick delays, commit at the
	// proposer takes prepare(1)+ack(1)+accept(1)+accepted(1) = 4 ticks.
	c := NewCluster(3, nil, Config{})
	c.Nodes[0].Propose(types.Value("v"))
	decidedAt := -1
	c.RunUntil(func() bool {
		if _, ok := c.Nodes[0].Decided(); ok && decidedAt < 0 {
			decidedAt = c.Now()
		}
		return decidedAt >= 0
	}, 100)
	if decidedAt != 5 { // +1 tick for the injected Propose taking effect at tick boundaries
		// The exact constant documents the phase count: 2 round trips.
		t.Fatalf("decided at tick %d, want 5 (2 phases × 2 delays + inject)", decidedAt)
	}
}

func TestCompetingProposersAgree(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 4, Seed: seed})
		c := NewCluster(5, fab, Config{RandomBackoff: true, Seed: seed})
		c.Nodes[0].Propose(types.Value("from-0"))
		c.Nodes[4].Propose(types.Value("from-4"))
		if !c.RunUntil(c.AllDecided, 3000) {
			t.Fatalf("seed %d: livelock not resolved", seed)
		}
		v, ok := c.Agreement()
		if !ok {
			t.Fatalf("seed %d: decided values diverge", seed)
		}
		if !v.Equal(types.Value("from-0")) && !v.Equal(types.Value("from-4")) {
			t.Fatalf("seed %d: decided a value nobody proposed: %q", seed, v)
		}
	}
}

func TestOnlyProposedValueChosen(t *testing.T) {
	// Safety property 1: only a proposed value may be chosen.
	c := NewCluster(3, nil, Config{})
	c.Nodes[1].Propose(types.Value("only"))
	c.RunUntil(c.AllDecided, 500)
	v, _ := c.Agreement()
	if !v.Equal(types.Value("only")) {
		t.Fatalf("chose %q", v)
	}
}

func TestLeaderCrashValueRecovered(t *testing.T) {
	// The slide sequence: leader 0 gets value v accepted by a majority,
	// then crashes. A new proposer must recover v, not its own value.
	c := NewCluster(5, nil, Config{})
	c.Nodes[0].Propose(types.Value("chosen-v"))
	// Run until a majority has accepted (acceptVal set on ≥3 nodes).
	ok := c.RunUntil(func() bool {
		cnt := 0
		for _, n := range c.Nodes {
			if n.acceptVal != nil {
				cnt++
			}
		}
		return cnt >= 3
	}, 200)
	if !ok {
		t.Fatal("majority never accepted")
	}
	c.Crash(0)
	c.Nodes[3].Propose(types.Value("usurper"))
	if !c.RunUntil(func() bool { _, d := c.Nodes[3].Decided(); return d }, 2000) {
		t.Fatal("new proposer never decided")
	}
	v, agreed := c.Agreement()
	if !agreed {
		t.Fatal("divergent decisions")
	}
	if !v.Equal(types.Value("chosen-v")) {
		t.Fatalf("new leader overwrote a possibly-chosen value: %q", v)
	}
}

func TestLeaderCrashBeforeQuorumAllowsNewValue(t *testing.T) {
	// If the first proposer dies before any acceptor accepts, the next
	// proposer's own value wins.
	c := NewCluster(5, nil, Config{})
	c.Crash(0) // crash immediately; its prepares never leave
	c.Nodes[0].Propose(types.Value("ghost"))
	c.Nodes[2].Propose(types.Value("fresh"))
	if !c.RunUntil(func() bool { _, d := c.Nodes[2].Decided(); return d }, 1000) {
		t.Fatal("no decision")
	}
	v, _ := c.Agreement()
	if !v.Equal(types.Value("fresh")) {
		t.Fatalf("decided %q, want fresh", v)
	}
}

func TestMinorityPartitionCannotDecide(t *testing.T) {
	fab := simnet.NewFabric(simnet.Options{})
	c := NewCluster(5, fab, Config{})
	fab.Partition([]types.NodeID{0, 1}, []types.NodeID{2, 3, 4})
	c.Nodes[0].Propose(types.Value("minority"))
	c.Run(500)
	if _, ok := c.Nodes[0].Decided(); ok {
		t.Fatal("minority partition decided")
	}
	// Heal: the proposal completes.
	fab.Heal()
	if !c.RunUntil(c.AllDecided, 2000) {
		t.Fatal("no decision after heal")
	}
}

func TestMajorityPartitionDecides(t *testing.T) {
	fab := simnet.NewFabric(simnet.Options{})
	c := NewCluster(5, fab, Config{})
	fab.Partition([]types.NodeID{0, 1}, []types.NodeID{2, 3, 4})
	c.Nodes[2].Propose(types.Value("majority-side"))
	ok := c.RunUntil(func() bool { _, d := c.Nodes[2].Decided(); return d }, 500)
	if !ok {
		t.Fatal("majority partition could not decide")
	}
}

func TestAcceptorPromiseHolds(t *testing.T) {
	// An acceptor that promised ballot b must reject prepare/accept with
	// smaller ballots.
	n := New(0, Config{Peers: []types.NodeID{0, 1, 2}}.withDefaults())
	n.Step(Message{Kind: MsgPrepare, From: 1, Ballot: types.Ballot{Num: 5, Owner: 1}})
	out := n.Drain()
	if len(out) != 1 || out[0].Kind != MsgAck {
		t.Fatalf("first prepare: %+v", out)
	}
	n.Step(Message{Kind: MsgPrepare, From: 2, Ballot: types.Ballot{Num: 3, Owner: 2}})
	out = n.Drain()
	if len(out) != 1 || out[0].Kind != MsgNack {
		t.Fatalf("stale prepare not nacked: %+v", out)
	}
	n.Step(Message{Kind: MsgAccept, From: 2, Ballot: types.Ballot{Num: 3, Owner: 2}, Val: types.Value("x")})
	out = n.Drain()
	if len(out) != 1 || out[0].Kind != MsgNack {
		t.Fatalf("stale accept not nacked: %+v", out)
	}
	if n.acceptVal != nil {
		t.Fatal("stale accept mutated acceptor state")
	}
}

func TestAckReportsAcceptedValue(t *testing.T) {
	n := New(0, Config{Peers: []types.NodeID{0, 1, 2}}.withDefaults())
	b1 := types.Ballot{Num: 1, Owner: 1}
	n.Step(Message{Kind: MsgAccept, From: 1, Ballot: b1, Val: types.Value("v1")})
	n.Drain()
	b2 := types.Ballot{Num: 2, Owner: 2}
	n.Step(Message{Kind: MsgPrepare, From: 2, Ballot: b2})
	out := n.Drain()
	if len(out) != 1 || out[0].Kind != MsgAck {
		t.Fatalf("prepare: %+v", out)
	}
	if out[0].AcceptNum != b1 || !out[0].Val.Equal(types.Value("v1")) {
		t.Fatalf("ack did not report accepted state: %+v", out[0])
	}
}

func TestSafetyUnderRandomSchedules(t *testing.T) {
	// Agreement must hold under lossy, reordering networks with
	// concurrent proposers and crash/restart — across many seeds.
	for seed := uint64(0); seed < 30; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 8, DropRate: 0.15, DupRate: 0.05, Seed: seed})
		c := NewCluster(5, fab, Config{RandomBackoff: true, Seed: seed})
		c.Nodes[0].Propose(types.Value("A"))
		c.Nodes[1].Propose(types.Value("B"))
		c.Nodes[2].Propose(types.Value("C"))
		rng := simnet.NewRNG(seed * 7)
		for i := 0; i < 40; i++ {
			c.Run(50)
			// Random crash/restart of one non-decided node.
			victim := types.NodeID(rng.Intn(5))
			if rng.Bool(0.3) && !c.Crashed(victim) {
				c.Crash(victim)
			} else if c.Crashed(victim) {
				c.Restart(victim)
			}
			if _, ok := c.Agreement(); !ok {
				// Agreement() is only false on divergence.
				t.Fatalf("seed %d: decided values diverged", seed)
			}
		}
	}
}

func TestDecideIsStable(t *testing.T) {
	// Once decided, late messages cannot change the decision (the learn
	// path panics on conflicting decide).
	c := NewCluster(3, nil, Config{})
	c.Nodes[0].Propose(types.Value("stable"))
	c.RunUntil(c.AllDecided, 300)
	n := c.Nodes[1]
	n.Step(Message{Kind: MsgDecide, From: 0, To: 1, Val: types.Value("stable")})
	if v, _ := n.Decided(); !v.Equal(types.Value("stable")) {
		t.Fatal("decision changed")
	}
}

func TestRestartCounting(t *testing.T) {
	c := NewCluster(3, nil, Config{})
	c.Nodes[0].Propose(types.Value("x"))
	c.RunUntil(c.AllDecided, 300)
	if c.Nodes[0].Restarts() != 1 {
		t.Fatalf("clean run restarted %d times", c.Nodes[0].Restarts())
	}
}

func TestDuelingProposersBackoffHelps(t *testing.T) {
	// F1's claim: randomized backoff resolves livelock faster (fewer
	// ballot restarts) than fixed timeouts. Compare totals across seeds.
	total := func(backoff bool) int {
		restarts := 0
		for seed := uint64(0); seed < 10; seed++ {
			fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 3, Seed: seed})
			c := NewCluster(5, fab, Config{RetryTicks: 6, RandomBackoff: backoff, Seed: seed})
			c.Nodes[0].Propose(types.Value("L"))
			c.Nodes[4].Propose(types.Value("R"))
			c.RunUntil(c.AllDecided, 4000)
			restarts += c.Nodes[0].Restarts() + c.Nodes[4].Restarts()
		}
		return restarts
	}
	fixed, random := total(false), total(true)
	if random >= fixed {
		t.Fatalf("backoff did not help: fixed=%d random=%d", fixed, random)
	}
}

func TestMessageComplexityLinear(t *testing.T) {
	// O(N): messages per decision grow linearly, not quadratically.
	msgs := func(n int) int {
		c := NewCluster(n, nil, Config{})
		c.Nodes[0].Propose(types.Value("v"))
		c.RunUntil(c.AllDecided, 1000)
		return c.Stats().Sent
	}
	m5, m10 := msgs(5), msgs(10)
	if m10 > 3*m5 {
		t.Fatalf("message growth superlinear: n=5→%d, n=10→%d", m5, m10)
	}
}

// Agreement returns the decided value (nil if no node has decided) and
// whether agreement holds: ok is false only when two nodes decided
// different values — a safety violation. With zero or one decided node,
// ok is vacuously true.
func (c *Cluster) Agreement() (types.Value, bool) {
	var v types.Value
	seen := false
	for _, n := range c.Nodes {
		d, ok := n.Decided()
		if !ok {
			continue
		}
		if !seen {
			v, seen = d, true
			continue
		}
		if !v.Equal(d) {
			return nil, false
		}
	}
	return v, true
}
