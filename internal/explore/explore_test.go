package explore

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/paxos"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

func genSchedule(seed uint64, nodes, horizon, faults int, classes []nemesis.Op) nemesis.Schedule {
	return nemesis.Generate(simnet.NewRNG(ScheduleSeed(seed)), nemesis.GenConfig{
		Nodes: nodeIDs(nodes), Horizon: horizon, Faults: faults, Classes: classes,
	})
}

func TestRunOnceBitIdenticalReplay(t *testing.T) {
	p, ok := Lookup("raft")
	if !ok {
		t.Fatal("raft not registered")
	}
	sched := genSchedule(7, p.Nodes, p.Horizon, 5, nil)
	a := RunOnce(p, 7, 0, 0, sched)
	b := RunOnce(p, 7, 0, 0, sched)
	if a.Hash != b.Hash {
		t.Fatalf("same (seed, schedule) hashed %s vs %s", a.Hash, b.Hash)
	}
	if a.Outcome != b.Outcome || fmt.Sprint(a.Stats) != fmt.Sprint(b.Stats) {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	c := RunOnce(p, 8, 0, 0, sched)
	if a.Hash == c.Hash {
		t.Fatal("different seeds produced the same trace hash")
	}
}

func TestSpecRoundTripReplay(t *testing.T) {
	p, _ := Lookup("multipaxos")
	sched := genSchedule(11, p.Nodes, p.Horizon, 4, nil)
	r := RunOnce(p, 11, 0, 0, sched)
	sp := r.Spec(sched)
	decoded, err := nemesis.Decode(sp.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	r2, match := Replay(p, decoded)
	if !match {
		t.Fatalf("replay hash %s != recorded %s", r2.Hash, sp.Hash)
	}
}

func TestCampaignSmoke(t *testing.T) {
	// A bounded sweep per protocol family under the default crash-model
	// mix: the point is that no registered protocol violates safety.
	// Stalls are legitimate outcomes (2PC blocks by design).
	for _, name := range []string{"paxos", "raft", "multipaxos", "flexpaxos", "2pc", "3pc"} {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		res := Campaign{Proto: p, Seeds: 4, SeedBase: 100, Faults: 4}.Run()
		if res.Runs != 4 {
			t.Fatalf("%s: ran %d, want 4", name, res.Runs)
		}
		if n := res.Outcomes[OutcomeViolation]; n != 0 {
			t.Errorf("%s: %d safety violation(s): %+v", name, n, res.Failures[0].Result.Violation)
		}
		total := 0
		for _, c := range res.Outcomes {
			total += c
		}
		if total != res.Runs {
			t.Errorf("%s: outcome counts sum %d != runs %d", name, total, res.Runs)
		}
		for class, row := range res.Matrix {
			for outcome := range row {
				if outcome != OutcomeOK && outcome != OutcomeStall && outcome != OutcomeViolation {
					t.Errorf("%s: matrix row %q has unknown outcome %q", name, class, outcome)
				}
			}
		}
	}
}

func TestCampaignByzantineSmoke(t *testing.T) {
	for _, name := range []string{"pbft", "hotstuff"} {
		p, _ := Lookup(name)
		res := Campaign{
			Proto: p, Seeds: 2, SeedBase: 40, Faults: 3,
			Classes: nemesis.AllClasses,
		}.Run()
		if n := res.Outcomes[OutcomeViolation]; n != 0 {
			t.Errorf("%s: %d safety violation(s): %+v", name, n, res.Failures[0].Result.Violation)
		}
	}
}

// splitBrainPaxos is the known-bad configuration the acceptance
// criteria require the suite to catch: two disjoint Paxos halves whose
// "quorums" (majorities of each half) never intersect across halves —
// quorum intersection weakened below the safe bound. The halves decide
// independently, violating single-value agreement with no faults at
// all, so a failing schedule must shrink to zero fault events.
func splitBrainPaxos() Protocol {
	newEp := func(n int, seed uint64) *Episode {
		fab := campaignFabric(seed)
		rc := runner.New(runner.Config[paxos.Message]{
			Fabric: fab, Dest: paxos.Dest, Src: paxos.Src, Kind: paxos.Kind,
		})
		halves := [][]types.NodeID{{0, 1}, {2, 3}}
		var nodes []*paxos.Node
		for i := 0; i < 4; i++ {
			peers := halves[i/2]
			nd := paxos.New(types.NodeID(i), paxos.Config{
				Peers: peers, RandomBackoff: true, Seed: seed,
			})
			nodes = append(nodes, nd)
			rc.Add(types.NodeID(i), nd)
		}
		decided := func() []types.Value {
			out := make([]types.Value, len(nodes))
			for i, nd := range nodes {
				if v, ok := nd.Decided(); ok {
					out[i] = v
				}
			}
			return out
		}
		return &Episode{
			Target: rc,
			Tick: func(now int) {
				if now == 1 && !rc.Crashed(0) {
					nodes[0].Propose([]byte("v-left"))
				}
				if now == 1 && !rc.Crashed(2) {
					nodes[2].Propose([]byte("v-right"))
				}
				rc.Step()
			},
			Check: func() *Violation { return CheckSingleValue(decided()) },
			Fingerprint: func() string {
				fp := uint64(fnvOffset)
				for i, v := range decided() {
					if v == nil {
						continue
					}
					fp = fnvMixUint(fp, uint64(i))
					for _, b := range v {
						fp = fnvMix(fp, b)
					}
				}
				return fmt.Sprintf("%016x", fp)
			},
			Healthy: func() bool {
				for _, v := range decided() {
					if v == nil {
						return false
					}
				}
				return true
			},
			Stats: rc.Stats,
		}
	}
	return Protocol{Name: "splitbrain-paxos", Nodes: 4, MinNodes: 4, Horizon: 300, New: newEp}
}

func TestKnownBadConfigCaughtAndShrunk(t *testing.T) {
	p := splitBrainPaxos()
	seed := uint64(5)
	sched := genSchedule(seed, p.Nodes, p.Horizon, 4,
		[]nemesis.Op{nemesis.OpCutLink, nemesis.OpDelaySet})
	if sched.FaultCount() == 0 {
		t.Fatal("generated schedule has no faults; pick another seed")
	}
	r := RunOnce(p, seed, 0, 0, sched)
	if r.Outcome != OutcomeViolation {
		t.Fatalf("split-brain config not caught: outcome %s", r.Outcome)
	}
	if r.Violation.Invariant != "single-value-agreement" {
		t.Fatalf("unexpected invariant: %s", r.Violation)
	}

	sh := ShrinkSchedule(p, seed, 0, 0, sched, 0)
	if sh.Final.Outcome != OutcomeViolation {
		t.Fatal("shrunk reproducer no longer violates")
	}
	if sh.Schedule.FaultCount() >= sched.FaultCount() {
		t.Fatalf("shrink did not reduce faults: %d -> %d",
			sched.FaultCount(), sh.Schedule.FaultCount())
	}
	// The violation is fault-independent, so the minimal reproducer is
	// fault-free with a horizon cut to just past the violation.
	if sh.Schedule.FaultCount() != 0 {
		t.Errorf("expected fault-free reproducer, kept %d fault(s)", sh.Schedule.FaultCount())
	}
	if sh.Horizon >= p.Horizon {
		t.Errorf("horizon not truncated: %d", sh.Horizon)
	}

	// The shrunk spec replays bit-identically.
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

// A shrink candidate that panics the protocol still fails: the shrinker
// keeps it as the smaller reproducer instead of letting the panic abort
// the campaign. The fixture violates at four nodes and panics at three,
// the size pass 3 tries.
func TestShrinkKeepsPanickingCandidate(t *testing.T) {
	p := splitBrainPaxos()
	build := p.New
	p.MinNodes = 3
	p.New = func(n int, seed uint64) *Episode {
		if n < 4 {
			panic("fixture: too small a cluster")
		}
		return build(n, seed)
	}
	sh := ShrinkSchedule(p, 5, 0, 0, nemesis.Schedule{}, 0)
	if sh.Final.Outcome != OutcomeViolation || sh.Final.Violation.Invariant != "panic" {
		t.Fatalf("panicking candidate not kept as a failure: %+v", sh.Final)
	}
	if sh.Nodes != 3 {
		t.Fatalf("shrunk to %d nodes, want the panicking 3", sh.Nodes)
	}
	if sp := sh.Final.Spec(sh.Schedule); sp.Hash != "" {
		t.Fatalf("a panicked run has no trace to hash, spec carries %q", sp.Hash)
	}
}

func TestShrinkKeepsEssentialFault(t *testing.T) {
	// A healthy protocol never violates, so ShrinkSchedule on a clean
	// run returns immediately with the original schedule.
	p, _ := Lookup("raft")
	sched := genSchedule(3, p.Nodes, p.Horizon, 3, nil)
	sh := ShrinkSchedule(p, 3, 0, 0, sched, 0)
	if sh.Runs != 1 {
		t.Fatalf("clean run should cost exactly one probe, spent %d", sh.Runs)
	}
	if sh.Final.Outcome == OutcomeViolation {
		t.Fatal("raft violated under a crash-model schedule")
	}
}
