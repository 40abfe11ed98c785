// Package icagree implements Pease–Shostak–Lamport interactive
// consistency, the problem the paper walks through on its "Reaching
// Agreement in the Presence of Fault" slides, as the recursive Oral
// Messages algorithm OM(m) (RunOM): every process acts as commander once,
// and each element of the result vector is a majority over the relays,
// UNKNOWN where no majority exists.
//
// With N ≥ 3m+1 the correct processes agree on every element and keep
// each other's values; below the bound their vectors can diverge.
// Experiment F9 measures exactly this. The slides' simplified two-round
// exchange (N = 4 and N = 3 with f = 1) lives in the package's tests,
// where OM(1) is checked against it.
package icagree

import (
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// Unknown is the sentinel value for elements with no majority.
const Unknown = "UNKNOWN"

// Process is one participant. Faulty processes lie per the Lie function;
// honest processes have Lie == nil.
type Process struct {
	ID    types.NodeID
	Value string
	// Lie, when non-nil, fabricates the value this process reports to a
	// given peer in a given round, modelling byzantine equivocation. The
	// element parameter is whose value is being (mis)relayed.
	Lie func(round int, to types.NodeID, element types.NodeID, truth string) string
}

// Result is one process's final vector, indexed by process ID.
type Result map[types.NodeID]string

func majority(counts map[string]int, votes int) string {
	for _, v := range det.SortedKeys(counts) {
		if 2*counts[v] > votes {
			return v
		}
	}
	return Unknown
}

// RandomLiar builds a Lie function that reports an arbitrary distinct
// fabrication to every (round, peer, element) triple, the strongest
// equivocation the slides illustrate ("x to 1, y to 2, z to 4").
func RandomLiar(rng *simnet.RNG) func(int, types.NodeID, types.NodeID, string) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	memo := map[[3]int]string{}
	return func(round int, to types.NodeID, element types.NodeID, truth string) string {
		k := [3]int{round, int(to), int(element)}
		if v, ok := memo[k]; ok {
			return v
		}
		v := string(letters[rng.Intn(len(letters))]) + string(letters[rng.Intn(len(letters))])
		memo[k] = v
		return v
	}
}

// AgreeOnHonest reports whether every pair of honest results agrees on
// every element, and whether each honest process's own value survived
// (validity).
func AgreeOnHonest(procs []*Process, results map[types.NodeID]Result) (agreement, validity bool) {
	agreement, validity = true, true
	honest := make([]*Process, 0, len(procs))
	for _, p := range procs {
		if p.Lie == nil {
			honest = append(honest, p)
		}
	}
	for _, p := range honest {
		for _, q := range honest {
			for _, e := range procs {
				if results[p.ID][e.ID] != results[q.ID][e.ID] {
					agreement = false
				}
			}
		}
	}
	for _, p := range honest {
		for _, q := range honest {
			if results[p.ID][q.ID] != q.Value {
				validity = false
			}
		}
	}
	return agreement, validity
}
