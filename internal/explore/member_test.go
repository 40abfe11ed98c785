package explore

import (
	"testing"

	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/simnet"
)

// A directed schedule: vote node 4 out early, re-admit it long after
// every survivor has compacted. The run can only end healthy if the
// fresh instance caught up through a snapshot install (the log prefix
// it needs is gone cluster-wide), so OutcomeOK asserts the whole
// remove → compact → re-add → InstallSnapshot → commit pipeline.
func TestRaftMemberSnapshotCatchUp(t *testing.T) {
	p, ok := Lookup("raft-member")
	if !ok {
		t.Fatal("raft-member not registered")
	}
	sched := nemesis.Schedule{Events: []nemesis.Event{
		{At: 80, Op: nemesis.OpRemoveNode, Node: 4},
		{At: 400, Op: nemesis.OpAddNode, Node: 4},
	}}
	res := RunOnce(p, 7, 0, 0, sched)
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome %s (violation %v)", res.Outcome, res.Violation)
	}
	// Bit-identical replay: the trace hash pins every message, every
	// snapshot transfer, and every membership change.
	again := RunOnce(p, 7, 0, 0, sched)
	if again.Hash != res.Hash {
		t.Fatalf("replay hash %s != %s", again.Hash, res.Hash)
	}
}

// Three shrunk reproducers from the 400-seed sweep that broke agreement
// when AddNode swapped the fresh instance in at once: each re-admits a
// node one to three ticks after voting it out, before the removal can
// have committed, so a member every config still counted came back
// having forgotten its term, its vote and the entries it had
// acknowledged. Seed 108 ended in an index-out-of-range panic at a
// leader told of a match beyond its log, 267 in a log-prefix-agreement
// violation, 335 in a follower truncating a committed index. With the
// swap deferred until the removal commits all three run clean (267 at
// the full horizon: the shrinker had cut it just past the violation,
// before the re-admission can finish).
func TestRaftMemberReaddBeforeRemovalCommits(t *testing.T) {
	p, _ := Lookup("raft-member")
	for _, spec := range []string{
		`nemesis/v1
protocol raft-member
nodes 5
seed 108
horizon 600
events 4
partition 42 0,4,3|2,1
heal 132
rmnode 173 3
addnode 174 3
end
`, `nemesis/v1
protocol raft-member
nodes 5
seed 267
horizon 600
events 4
partition 262 1,4,2|3,0
rmnode 283 4
addnode 286 4
heal 327
end
`, `nemesis/v1
protocol raft-member
nodes 5
seed 335
horizon 600
events 6
crash 30 1
restart 32 1
partition 203 1,4|0,2,3
rmnode 236 2
addnode 239 2
heal 398
end
`} {
		sp, err := nemesis.Decode([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := Replay(p, sp); res.Outcome != OutcomeOK {
			t.Errorf("seed %d: outcome %s (violation %v)", sp.Seed, res.Outcome, res.Violation)
		}
	}
}

// A seeded campaign mixing membership churn with crashes and
// partitions: no schedule may produce a safety violation, and the
// sweep must be deterministic end to end.
func TestRaftMemberCampaign(t *testing.T) {
	p, _ := Lookup("raft-member")
	camp := Campaign{
		Proto: p, Seeds: 6, SeedBase: 300, Faults: 3,
		Classes: []nemesis.Op{nemesis.OpRemoveNode, nemesis.OpCrash, nemesis.OpPartition},
	}
	res := camp.Run()
	if res.Outcomes[OutcomeViolation] > 0 {
		for _, f := range res.Failures {
			t.Errorf("seed %d: %v\n%s", f.Result.Seed, f.Result.Violation, f.Spec.Encode())
		}
		t.Fatal("membership campaign produced violations")
	}
	if _, ok := res.Matrix["rmnode"]; !ok {
		t.Fatal("no generated schedule contained a membership change")
	}
	again := camp.Run()
	if len(again.Outcomes) != len(res.Outcomes) {
		t.Fatalf("replayed campaign outcomes %v != %v", again.Outcomes, res.Outcomes)
	}
	for k, v := range res.Outcomes {
		if again.Outcomes[k] != v {
			t.Fatalf("replayed campaign outcomes %v != %v", again.Outcomes, res.Outcomes)
		}
	}
}

// Generated membership faults must be well-formed pairs the spec codec
// round-trips.
func TestMembershipScheduleRoundTrip(t *testing.T) {
	sched := nemesis.Generate(simnet.NewRNG(9), nemesis.GenConfig{
		Nodes: nodeIDs(5), Horizon: 600, Faults: 6,
		Classes: []nemesis.Op{nemesis.OpRemoveNode},
	})
	if sched.FaultCount() == 0 {
		t.Fatal("generator produced no membership faults")
	}
	sp := &nemesis.Spec{Protocol: "raft-member", Nodes: 5, Seed: 9, Horizon: 600, Schedule: sched}
	dec, err := nemesis.Decode(sp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Schedule.Events) != len(sched.Events) {
		t.Fatalf("round-trip lost events: %d != %d", len(dec.Schedule.Events), len(sched.Events))
	}
	for i, e := range dec.Schedule.Events {
		want := sched.Events[i]
		if e.Op != want.Op || e.At != want.At || e.Node != want.Node {
			t.Fatalf("event %d: %+v != %+v", i, e, want)
		}
	}
}
