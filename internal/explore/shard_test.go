package explore

import (
	"testing"

	"fortyconsensus/internal/nemesis"
)

// brokenShard wraps the shard harness with the unsafe coordinator:
// each shard's outcome shipped straight from its own vote, before the
// other votes are known. Its workload contains a guaranteed vote split (the chaser
// transaction), so the atomic-commitment invariant must fire even on a
// fault-free run — and the shrinker must therefore strip every fault.
func brokenShard() Protocol {
	return Protocol{
		Name: "shard-unsafe", Nodes: 8, MinNodes: 8, Horizon: 800,
		New: func(n int, seed uint64) *Episode { return shardEpisode(n, seed, true) },
	}
}

func TestShardEpisodeFaultFree(t *testing.T) {
	p, ok := Lookup("shard")
	if !ok {
		t.Fatal("shard not registered")
	}
	r := RunOnce(p, 3, 0, 0, nemesis.Schedule{})
	if r.Outcome != OutcomeOK {
		t.Fatalf("fault-free shard run: outcome %s (violation: %v)", r.Outcome, r.Violation)
	}
}

func TestShardReplayBitIdentical(t *testing.T) {
	p, _ := Lookup("shard")
	sched := genSchedule(9, p.Nodes, p.Horizon, 4,
		[]nemesis.Op{nemesis.OpCrash, nemesis.OpPartition})
	a := RunOnce(p, 9, 0, 0, sched)
	b := RunOnce(p, 9, 0, 0, sched)
	if a.Hash != b.Hash {
		t.Fatalf("same (seed, schedule) hashed %s vs %s", a.Hash, b.Hash)
	}
	c := RunOnce(p, 10, 0, 0, sched)
	if a.Hash == c.Hash {
		t.Fatal("different seeds produced the same trace hash")
	}
}

func TestShardCampaignCrashPartition(t *testing.T) {
	// The acceptance campaign: seeded crash+partition schedules over
	// the sharded service. Stalls are legitimate (a majority-down shard
	// or a long partition blocks 2PC); violations are not.
	p, _ := Lookup("shard")
	res := Campaign{
		Proto: p, Seeds: 6, SeedBase: 300, Faults: 4,
		Classes: []nemesis.Op{nemesis.OpCrash, nemesis.OpPartition},
	}.Run()
	if res.Runs != 6 {
		t.Fatalf("ran %d, want 6", res.Runs)
	}
	if n := res.Outcomes[OutcomeViolation]; n != 0 {
		t.Fatalf("%d safety violation(s): %+v", n, res.Failures[0].Result.Violation)
	}
	if res.Outcomes[OutcomeOK] == 0 {
		t.Fatal("no healthy runs at all; harness likely wedged")
	}
}

func TestBrokenShardCoordinatorCaughtAndShrunk(t *testing.T) {
	p := brokenShard()
	seed := uint64(4)
	sched := genSchedule(seed, p.Nodes, p.Horizon, 4,
		[]nemesis.Op{nemesis.OpCrash, nemesis.OpPartition})
	if sched.FaultCount() == 0 {
		t.Fatal("generated schedule has no faults; pick another seed")
	}
	r := RunOnce(p, seed, 0, 0, sched)
	if r.Outcome != OutcomeViolation {
		t.Fatalf("broken coordinator not caught: outcome %s", r.Outcome)
	}
	if r.Violation.Invariant != "atomic-commitment" {
		t.Fatalf("unexpected invariant: %s", r.Violation)
	}

	sh := ShrinkSchedule(p, seed, 0, 0, sched, 0)
	if sh.Final.Outcome != OutcomeViolation {
		t.Fatal("shrunk reproducer no longer violates")
	}
	// The vote split is baked into the workload, not the faults, so
	// the minimal reproducer is fault-free with a truncated horizon.
	if sh.Schedule.FaultCount() != 0 {
		t.Errorf("expected fault-free reproducer, kept %d fault(s)", sh.Schedule.FaultCount())
	}
	if sh.Horizon >= p.Horizon {
		t.Errorf("horizon not truncated: %d", sh.Horizon)
	}

	sp := sh.Final.Spec(sh.Schedule)
	sp.Nodes = sh.Nodes
	sp.Horizon = sh.Horizon
	decoded, err := nemesis.Decode(sp.Encode())
	if err != nil {
		t.Fatalf("decode shrunk spec: %v", err)
	}
	if _, match := Replay(p, decoded); !match {
		t.Fatal("shrunk reproducer replay hash mismatch")
	}
}
