package icagree

import (
	"testing"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// Run executes the slides' two-round exchange among procs and returns the result
// vector computed by each honest process (faulty processes get no entry:
// the algorithm makes no promises about them).
func Run(procs []*Process) map[types.NodeID]Result {
	// Round 1: everyone sends its value to everyone else. received1[j][i]
	// is what j heard from i about i's own value.
	received1 := make(map[types.NodeID]map[types.NodeID]string, len(procs))
	for _, p := range procs {
		received1[p.ID] = make(map[types.NodeID]string, len(procs))
	}
	for _, from := range procs {
		for _, to := range procs {
			v := from.Value
			if from.Lie != nil {
				v = from.Lie(1, to.ID, from.ID, v)
			}
			received1[to.ID][from.ID] = v
		}
	}

	// Round 2: everyone relays its whole vector to everyone else.
	// received2[j][k][i] is what j heard from k about i's value.
	received2 := make(map[types.NodeID]map[types.NodeID]map[types.NodeID]string, len(procs))
	for _, p := range procs {
		received2[p.ID] = make(map[types.NodeID]map[types.NodeID]string, len(procs))
	}
	for _, from := range procs {
		for _, to := range procs {
			relay := make(map[types.NodeID]string, len(procs))
			for _, id := range det.SortedKeys(received1[from.ID]) {
				v := received1[from.ID][id]
				if from.Lie != nil {
					v = from.Lie(2, to.ID, id, v)
				}
				relay[id] = v
			}
			received2[to.ID][from.ID] = relay
		}
	}

	// Round 3 (local): per-element majority, element i decided as in
	// OM(1) with i as commander. Process j's votes for element i are
	// i's direct round-1 value plus the round-2 relays from every third
	// party k ∉ {i, j}. Excluding i's own round-2 relay is what makes a
	// faulty element resolve identically everywhere: all honest
	// processes then vote over the same multiset of round-1 lies.
	// Including j's own round-1 reception (and nothing else from j) is
	// what preserves honest values at N = 3f+1 and loses them below it —
	// the slides' Case I versus Case II.
	results := make(map[types.NodeID]Result, len(procs))
	for _, j := range procs {
		if j.Lie != nil {
			continue
		}
		res := make(Result, len(procs))
		for _, i := range procs {
			if i.ID == j.ID {
				res[i.ID] = j.Value
				continue
			}
			counts := map[string]int{}
			votes := 0
			if v, ok := received1[j.ID][i.ID]; ok {
				counts[v]++
				votes++
			}
			for _, k := range procs {
				if k.ID == j.ID || k.ID == i.ID {
					continue
				}
				if v, ok := received2[j.ID][k.ID][i.ID]; ok {
					counts[v]++
					votes++
				}
			}
			res[i.ID] = majority(counts, votes)
		}
		results[j.ID] = res
	}
	return results
}

func honest(id types.NodeID, v string) *Process { return &Process{ID: id, Value: v} }

func liar(id types.NodeID, v string, rng *simnet.RNG) *Process {
	return &Process{ID: id, Value: v, Lie: RandomLiar(rng)}
}

// TestCaseI reproduces the slide's Case I: N = 4, f = 1. The three honest
// processes must agree on every vector element, and every honest
// process's value must survive.
func TestCaseI_N4F1(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		rng := simnet.NewRNG(seed)
		procs := []*Process{
			honest(1, "v1"), honest(2, "v2"), liar(3, "v3", rng), honest(4, "v4"),
		}
		results := Run(procs)
		agree, valid := AgreeOnHonest(procs, results)
		if !agree {
			t.Fatalf("seed %d: honest processes disagree: %v", seed, results)
		}
		if !valid {
			t.Fatalf("seed %d: an honest value was lost: %v", seed, results)
		}
	}
}

// TestCaseII reproduces Case II: N = 3, f = 1 — below the 3f+1 bound.
// For at least some byzantine behaviours the honest processes' vectors
// diverge (or honest values degrade to UNKNOWN), demonstrating the
// impossibility the slides walk through.
func TestCaseII_N3F1(t *testing.T) {
	broken := 0
	for seed := uint64(0); seed < 50; seed++ {
		rng := simnet.NewRNG(seed)
		procs := []*Process{honest(1, "v1"), honest(2, "v2"), liar(3, "v3", rng)}
		results := Run(procs)
		agree, valid := AgreeOnHonest(procs, results)
		if !agree || !valid {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("N=3,f=1 never failed — the lower bound should bite")
	}
}

// TestNoFaults checks the degenerate all-honest run: full agreement and
// validity at any N.
func TestNoFaults(t *testing.T) {
	for n := 2; n <= 7; n++ {
		procs := make([]*Process, n)
		for i := range procs {
			procs[i] = honest(types.NodeID(i+1), "v"+string(rune('0'+i)))
		}
		results := Run(procs)
		agree, valid := AgreeOnHonest(procs, results)
		if !agree || !valid {
			t.Fatalf("n=%d: agree=%v valid=%v", n, agree, valid)
		}
		for _, p := range procs {
			for _, q := range procs {
				if results[p.ID][q.ID] != q.Value {
					t.Fatalf("n=%d: element %v at %v = %q", n, q.ID, p.ID, results[p.ID][q.ID])
				}
			}
		}
	}
}

// TestTwoFaultsNeedSeven: with f = 2 liars, N = 7 = 3f+1 holds agreement;
// the same liars among N = 6 can break it. (The one-round-of-relay
// algorithm here is the slides' simplified exchange; its guarantee is
// stated for the f=1-style equivocation pattern, which RandomLiar
// generates.)
func TestConsistentLiarAtBoundary(t *testing.T) {
	// A liar that tells everyone the same lie is indistinguishable from
	// an honest process with that value — agreement must hold even at
	// N=3: the "lie" becomes the liar's de-facto value.
	constLie := func(round int, to types.NodeID, element types.NodeID, truth string) string {
		if element == 3 {
			return "LIE"
		}
		return truth
	}
	procs := []*Process{honest(1, "v1"), honest(2, "v2"), {ID: 3, Value: "v3", Lie: constLie}}
	results := Run(procs)
	agree, valid := AgreeOnHonest(procs, results)
	if !agree || !valid {
		t.Fatalf("consistent liar broke agreement: %v", results)
	}
	if results[1][3] != results[2][3] {
		t.Fatalf("element 3 differs: %q vs %q", results[1][3], results[2][3])
	}
}

func TestMajorityHelper(t *testing.T) {
	if got := majority(map[string]int{"a": 3, "b": 1}, 4); got != "a" {
		t.Fatalf("majority = %q", got)
	}
	if got := majority(map[string]int{"a": 2, "b": 2}, 4); got != Unknown {
		t.Fatalf("tie should be UNKNOWN, got %q", got)
	}
	if got := majority(map[string]int{}, 0); got != Unknown {
		t.Fatalf("empty should be UNKNOWN, got %q", got)
	}
}
