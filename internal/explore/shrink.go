package explore

import (
	"fmt"

	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/types"
)

// The shrinker reduces a violating (schedule, cluster size, horizon)
// triple to a minimal reproducer, in the delta-debugging spirit: apply
// a candidate simplification, re-run deterministically, keep it if the
// run still violates *some* invariant (not necessarily the original
// one — any surviving violation is a valid, smaller reproducer). Four
// passes, cheapest-win first:
//
//  1. drop whole faults (an initiate/recover pair at a time),
//  2. shorten surviving fault windows (halve until minimal),
//  3. shrink the cluster, discarding faults aimed at removed nodes,
//  4. truncate the horizon just past the violation tick.

// ShrinkResult is a minimized reproducer plus the cost of finding it.
type ShrinkResult struct {
	Schedule nemesis.Schedule
	Nodes    int
	Horizon  int
	Runs     int    // RunOnce invocations spent
	Final    Result // result of the last (minimal) violating run
}

// DefaultShrinkBudget bounds re-runs per shrink.
const DefaultShrinkBudget = 200

// ShrinkSchedule minimizes a failing run: one that violates an
// invariant or panics the protocol. The caller guarantees that
// (p, seed, nodes, horizon, sched) fails; the returned triple fails too.
func ShrinkSchedule(p Protocol, seed uint64, nodes, horizon int, sched nemesis.Schedule, budget int) ShrinkResult {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	if nodes <= 0 {
		nodes = p.Nodes
	}
	if horizon <= 0 {
		horizon = p.Horizon
	}
	sr := ShrinkResult{Schedule: sched, Nodes: nodes, Horizon: horizon}
	sr.Final = runCandidate(p, seed, nodes, horizon, sched)
	sr.Runs++
	if sr.Final.Outcome != OutcomeViolation {
		return sr // nothing to shrink; report the run as-is
	}
	try := func(cand nemesis.Schedule, n, h int) bool {
		if sr.Runs >= budget {
			return false
		}
		r := runCandidate(p, seed, n, h, cand)
		sr.Runs++
		if r.Outcome != OutcomeViolation {
			return false
		}
		sr.Schedule, sr.Nodes, sr.Horizon, sr.Final = cand, n, h, r
		return true
	}

	// Pass 1: greedily drop fault pairs until no single drop reproduces.
	for dropped := true; dropped && sr.Runs < budget; {
		dropped = false
		pairs := faultPairs(sr.Schedule)
		for i := range pairs {
			if try(withoutPair(sr.Schedule, pairs[i]), sr.Nodes, sr.Horizon) {
				dropped = true
				break // indices are stale after a drop; rebuild
			}
		}
	}

	// Pass 2: halve surviving windows while the violation survives.
	for i := 0; i < len(faultPairs(sr.Schedule)) && sr.Runs < budget; i++ {
		for {
			pairs := faultPairs(sr.Schedule)
			if i >= len(pairs) {
				break
			}
			pr := pairs[i]
			if pr.rec < 0 {
				break
			}
			width := sr.Schedule.Events[pr.rec].At - sr.Schedule.Events[pr.init].At
			if width <= 1 {
				break
			}
			cand := cloneSchedule(sr.Schedule)
			cand.Events[pr.rec].At = cand.Events[pr.init].At + width/2
			cand.Normalize()
			if !try(cand, sr.Nodes, sr.Horizon) {
				break
			}
		}
	}

	// Pass 3: shrink the cluster toward the protocol's floor.
	for n := sr.Nodes - 1; n >= p.MinNodes && sr.Runs < budget; n-- {
		cand, ok := restrictToNodes(sr.Schedule, n)
		if !ok || !try(cand, n, sr.Horizon) {
			break
		}
	}

	// Pass 4: truncate the horizon just past the violation, dropping
	// events that can no longer fire.
	if at := sr.Final.ViolationAt; at >= 0 && at+1 < sr.Horizon {
		h := at + 1
		cand := nemesis.Schedule{}
		for _, e := range sr.Schedule.Events {
			if e.At < h {
				cand.Events = append(cand.Events, e)
			}
		}
		try(cand, sr.Nodes, h)
	}
	return sr
}

// runCandidate is RunOnce for a shrink candidate. A simpler schedule
// may turn the invariant violation being shrunk into a protocol panic
// (a node asserting on state the violation corrupted). That candidate
// still fails, so it is kept — as a violation named "panic", with no
// trace hash to verify, whose replay panics the same way — instead of
// aborting the campaign that was only minimizing a failure it had
// already found.
func runCandidate(p Protocol, seed uint64, nodes, horizon int, sched nemesis.Schedule) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				Protocol: p.Name, Nodes: nodes, Seed: seed, Horizon: horizon,
				Outcome: OutcomeViolation, ViolationAt: -1,
				Violation: &Violation{Invariant: "panic", Detail: fmt.Sprint(r)},
			}
		}
	}()
	return RunOnce(p, seed, nodes, horizon, sched)
}

// pair indexes one fault's initiate and recovery events in a schedule
// (rec == -1 for an unpaired initiator).
type pair struct{ init, rec int }

// faultPairs matches every initiating event with its first later
// recovery on the same key.
func faultPairs(s nemesis.Schedule) []pair {
	used := make([]bool, len(s.Events))
	var out []pair
	for i, e := range s.Events {
		if e.Op.IsRecovery() {
			continue
		}
		p := pair{init: i, rec: -1}
		for j := i + 1; j < len(s.Events); j++ {
			r := s.Events[j]
			if !used[j] && r.Op == e.Op.Recovery() && r.Key() == e.Key() {
				used[j] = true
				p.rec = j
				break
			}
		}
		out = append(out, p)
	}
	return out
}

func cloneSchedule(s nemesis.Schedule) nemesis.Schedule {
	return nemesis.Schedule{Events: append([]nemesis.Event(nil), s.Events...)}
}

// withoutPair removes one fault (both halves) from the schedule.
func withoutPair(s nemesis.Schedule, p pair) nemesis.Schedule {
	var out nemesis.Schedule
	for i, e := range s.Events {
		if i == p.init || i == p.rec {
			continue
		}
		out.Events = append(out.Events, e)
	}
	return out
}

// restrictToNodes rewrites the schedule for a cluster of n nodes:
// faults aimed at removed nodes are dropped (with their recoveries) and
// partition groups are trimmed to surviving members. Global-keyed
// recoveries (heal/cleardrop/cleardup) are over-dropped when any fault
// of their class goes — the candidate only has to still violate, so a
// slightly harsher schedule is acceptable. ok is always true today; the
// signature leaves room for stricter feasibility rules.
func restrictToNodes(s nemesis.Schedule, n int) (nemesis.Schedule, bool) {
	keep := func(id types.NodeID) bool { return int(id) < n }
	dropKeys := map[string]bool{}
	var out nemesis.Schedule
	for _, e := range s.Events {
		switch e.Op.Initiator() {
		case nemesis.OpCrash, nemesis.OpByzantine, nemesis.OpRemoveNode:
			if !keep(e.Node) {
				dropKeys[e.Key()] = true
				continue
			}
		case nemesis.OpCutLink, nemesis.OpDelaySet:
			if !keep(e.From) || !keep(e.To) {
				dropKeys[e.Key()] = true
				continue
			}
		case nemesis.OpPartition:
			if e.Op == nemesis.OpPartition {
				var groups [][]types.NodeID
				for _, g := range e.Groups {
					var gg []types.NodeID
					for _, id := range g {
						if keep(id) {
							gg = append(gg, id)
						}
					}
					if len(gg) > 0 {
						groups = append(groups, gg)
					}
				}
				if len(groups) < 2 {
					dropKeys[e.Key()] = true
					continue
				}
				e.Groups = groups
			}
		}
		out.Events = append(out.Events, e)
	}
	// Second sweep: recoveries whose initiator was dropped above.
	var final nemesis.Schedule
	for _, e := range out.Events {
		if e.Op.IsRecovery() && dropKeys[e.Key()] {
			continue
		}
		final.Events = append(final.Events, e)
	}
	return final, true
}
