package commit

import (
	"testing"

	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

func ops(n int, val string) map[types.NodeID]types.Value {
	m := make(map[types.NodeID]types.Value, n)
	for i := 1; i <= n; i++ {
		m[types.NodeID(i)] = types.Value(val)
	}
	return m
}

func TestTwoPCCommitsUnanimously(t *testing.T) {
	c := NewCluster(3, nil, TwoPC, nil, nil)
	c.Coord.Begin(1, ops(3, "op"))
	ok := c.RunUntil(func() bool { _, done := c.Unanimous(1); return done }, 300)
	if !ok {
		t.Fatal("transaction never finished")
	}
	if o, _ := c.Unanimous(1); o != Committed {
		t.Fatalf("outcome = %v", o)
	}
}

func TestTwoPCSingleNoAborts(t *testing.T) {
	// One cohort votes abort: everyone aborts — atomicity.
	veto := func(tx TxID, op types.Value) bool { return op.String() != "poison" }
	c := NewCluster(3, nil, TwoPC, veto, nil)
	mixed := ops(3, "fine")
	mixed[2] = types.Value("poison")
	c.Coord.Begin(1, mixed)
	ok := c.RunUntil(func() bool { _, done := c.Unanimous(1); return done }, 300)
	if !ok {
		t.Fatal("transaction never finished")
	}
	if o, _ := c.Unanimous(1); o != Aborted {
		t.Fatalf("outcome = %v, want aborted", o)
	}
}

func TestTwoPCAppliesOnCommitOnly(t *testing.T) {
	applied := map[types.NodeID]int{}
	apply := func(id types.NodeID) Applier {
		return func(tx TxID, op types.Value) { applied[id]++ }
	}
	veto := func(tx TxID, op types.Value) bool { return op.String() != "poison" }
	c := NewCluster(2, nil, TwoPC, veto, apply)
	c.Coord.Begin(1, ops(2, "good"))
	bad := ops(2, "good")
	bad[1] = types.Value("poison")
	c.Coord.Begin(2, bad)
	c.Run(300)
	if applied[1] != 1 || applied[2] != 1 {
		t.Fatalf("applied = %v, want one commit each", applied)
	}
}

func TestTwoPCBlocksOnCoordinatorCrash(t *testing.T) {
	// The blocking scenario: coordinator collects votes then dies before
	// sending the decision. Cohorts stay prepared — blocked — forever.
	fab := simnet.NewFabric(simnet.Options{Seed: 1})
	c := NewCluster(3, fab, TwoPC, nil, nil)
	// Cut coordinator's outgoing links after the prepare round: let
	// prepares out, then crash before the decision. Easiest determinism:
	// run until all votes are in flight, then crash the coordinator.
	c.Coord.Begin(1, ops(3, "op"))
	c.Run(2) // prepares delivered, votes sent
	c.Crash(0)
	c.Run(CohortTimeout + 100)
	if _, done := c.Unanimous(1); done {
		t.Fatal("2PC decided without a coordinator?!")
	}
	blocked := 0
	for _, h := range c.Cohorts {
		blocked += h.blocked
	}
	if blocked != 3 {
		t.Fatalf("blocked cohorts = %d, want 3", blocked)
	}
	// Coordinator returns: the transaction finishes (it aborts on vote
	// timeout since its timer also advanced — outcome just must exist
	// and be unanimous).
	c.Restart(0)
	ok := c.RunUntil(func() bool { _, done := c.Unanimous(1); return done }, 500)
	if !ok {
		t.Fatal("blocked transaction never resolved after coordinator return")
	}
}

func TestThreePCCommitPath(t *testing.T) {
	c := NewCluster(3, nil, ThreePC, nil, nil)
	c.Coord.Begin(1, ops(3, "op"))
	ok := c.RunUntil(func() bool { o, done := c.Unanimous(1); return done && o == Committed }, 400)
	if !ok {
		t.Fatalf("3PC commit never completed")
	}
	// 3 phases: prepare, pre-commit, commit all observed in stats.
	st := c.Stats()
	for _, k := range []string{"prepare", "pre-commit", "global"} {
		if st.ByKind[k] == 0 {
			t.Fatalf("phase %q never ran: %v", k, st.ByKind)
		}
	}
}

func TestThreePCTerminationUnblocksAfterPreCommit(t *testing.T) {
	// Coordinator dies after pre-commit reaches cohorts: the termination
	// protocol must COMMIT (some cohort is pre-committed).
	fab := simnet.NewFabric(simnet.Options{Seed: 2})
	c := NewCluster(3, fab, ThreePC, nil, nil)
	c.Coord.Begin(1, ops(3, "op"))
	// Run until at least one cohort is pre-committed.
	ok := c.RunUntil(func() bool {
		for _, h := range c.Cohorts {
			if tx, ok := h.txns[1]; ok && tx.state == stPreCommitted {
				return true
			}
		}
		return false
	}, 200)
	if !ok {
		t.Fatal("never reached pre-commit")
	}
	c.Crash(0)
	done := c.RunUntil(func() bool { o, fin := c.Unanimous(1); return fin && o == Committed }, 2000)
	if !done {
		o, _ := c.Unanimous(1)
		t.Fatalf("termination did not commit (outcome=%v)", o)
	}
}

func TestThreePCTerminationAbortsBeforePreCommit(t *testing.T) {
	// Coordinator dies right after prepare (no cohort pre-committed):
	// termination must ABORT — no one could have committed.
	fab := simnet.NewFabric(simnet.Options{Seed: 3})
	c := NewCluster(3, fab, ThreePC, nil, nil)
	c.Coord.Begin(1, ops(3, "op"))
	c.Run(2) // prepares out, votes in flight
	c.Crash(0)
	done := c.RunUntil(func() bool { o, fin := c.Unanimous(1); return fin && o == Aborted }, 2000)
	if !done {
		o, _ := c.Unanimous(1)
		t.Fatalf("termination did not abort (outcome=%v)", o)
	}
}

func TestThreePCNeverDivergent(t *testing.T) {
	// Across random crash points, all cohorts that decide must agree —
	// the cohort state machine panics on commit-then-abort, and this
	// checks cross-cohort agreement too.
	for seed := uint64(0); seed < 20; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 4, Seed: seed})
		c := NewCluster(4, fab, ThreePC, nil, nil)
		c.Coord.Begin(1, ops(4, "op"))
		rng := simnet.NewRNG(seed)
		crashAt := 1 + rng.Intn(30)
		c.Run(crashAt)
		c.Crash(0)
		c.Run(2000)
		var got Outcome
		seen := false
		for _, h := range c.Cohorts {
			o := h.Outcome(1)
			if o == Pending {
				continue
			}
			if !seen {
				got, seen = o, true
			} else if o != got {
				t.Fatalf("seed %d: divergent outcomes", seed)
			}
		}
		if !seen {
			t.Fatalf("seed %d: termination never decided", seed)
		}
	}
}

func TestCoordinatorAbortsOnSilentCohort(t *testing.T) {
	// A crashed cohort never votes: the coordinator times out and aborts
	// for everyone else.
	c := NewCluster(3, nil, TwoPC, nil, nil)
	c.Crash(2) // cohort node id 2
	c.Coord.Begin(1, ops(3, "op"))
	ok := c.RunUntil(func() bool {
		return c.Cohorts[0].Outcome(1) == Aborted && c.Cohorts[2].Outcome(1) == Aborted
	}, CoordTimeout+200)
	if !ok {
		t.Fatal("silent cohort did not cause abort")
	}
}

func TestDuplicatePrepareIgnored(t *testing.T) {
	h := NewCohort(1, []types.NodeID{1, 2}, TwoPC, nil, nil)
	h.Step(Message{Kind: MsgPrepare, From: 0, Tx: 9, Op: types.Value("op")})
	first := h.Drain()
	h.Step(Message{Kind: MsgPrepare, From: 0, Tx: 9, Op: types.Value("op")})
	second := h.Drain()
	if len(first) != 1 || len(second) != 0 {
		t.Fatalf("duplicate prepare re-voted: %d/%d", len(first), len(second))
	}
}

func TestLateCohortLearnsDecisionFromCoordinator(t *testing.T) {
	// A cohort that missed the global message re-learns it by the
	// coordinator answering unknown-tx traffic with the recorded outcome.
	c := NewCluster(2, nil, TwoPC, nil, nil)
	c.Coord.Begin(1, ops(2, "op"))
	c.RunUntil(func() bool { _, done := c.Unanimous(1); return done }, 300)
	// Simulate a stale vote arriving after completion.
	c.Coord.Step(Message{Kind: MsgVoteCommit, From: 1, To: 0, Tx: 1})
	out := c.Coord.Drain()
	if len(out) != 1 || out[0].Kind != MsgGlobal || out[0].Decision != Committed {
		t.Fatalf("late vote not answered with decision: %+v", out)
	}
}

func TestConcurrentTransactions(t *testing.T) {
	// Many in-flight transactions with mixed outcomes stay independent:
	// each reaches its own unanimous verdict.
	veto := func(tx TxID, op types.Value) bool { return tx%3 != 0 } // every 3rd aborts
	c := NewCluster(4, nil, TwoPC, veto, nil)
	const txns = 12
	for i := 1; i <= txns; i++ {
		c.Coord.Begin(TxID(i), ops(4, "op"))
	}
	ok := c.RunUntil(func() bool {
		for i := 1; i <= txns; i++ {
			if _, done := c.Unanimous(TxID(i)); !done {
				return false
			}
		}
		return true
	}, 2000)
	if !ok {
		t.Fatal("concurrent transactions never all finished")
	}
	for i := 1; i <= txns; i++ {
		o, _ := c.Unanimous(TxID(i))
		want := Committed
		if i%3 == 0 {
			want = Aborted
		}
		if o != want {
			t.Fatalf("tx %d = %v, want %v", i, o, want)
		}
	}
}

func TestThreePCConcurrentWithCoordinatorCrash(t *testing.T) {
	// Several transactions in flight when the coordinator dies: the
	// termination protocol settles every one of them, each unanimously.
	c := NewCluster(3, nil, ThreePC, nil, nil)
	for i := 1; i <= 4; i++ {
		c.Coord.Begin(TxID(i), ops(3, "op"))
	}
	c.Run(3)
	c.Crash(0)
	ok := c.RunUntil(func() bool {
		for i := 1; i <= 4; i++ {
			if _, done := c.Unanimous(TxID(i)); !done {
				return false
			}
		}
		return true
	}, 5000)
	if !ok {
		t.Fatal("termination left transactions unsettled")
	}
}

// Unanimous reports whether every cohort holds the same non-pending
// outcome for tx, and what it is.
func (c *Cluster) Unanimous(tx TxID) (Outcome, bool) {
	first := Pending
	for _, h := range c.Cohorts {
		o := h.Outcome(tx)
		if o == Pending {
			return Pending, false
		}
		if first == Pending {
			first = o
		} else if o != first {
			return Pending, false
		}
	}
	return first, first != Pending
}
