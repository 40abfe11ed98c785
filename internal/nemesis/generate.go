package nemesis

import (
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// GenConfig parameterizes random schedule generation. The zero value is
// not usable: Nodes and Horizon are required.
type GenConfig struct {
	// Nodes is the cluster membership faults are drawn over.
	Nodes []types.NodeID
	// Horizon is the run length in ticks; every fault starts inside
	// [0, Horizon*recoverNum/recoverDen) and recovers by then too, so the
	// tail of the run can demonstrate liveness after the chaos.
	Horizon int
	// Faults is the fault budget: how many initiate/recover pairs to
	// emit. The generator may come in under budget when constraints
	// (MaxDown, one-partition-at-a-time) reject its draws.
	Faults int
	// Classes restricts the fault families drawn. Empty means the
	// default mix: crash, partition, cut, delay.
	Classes []Op
	// MaxDown bounds how many nodes may be simultaneously crashed or
	// byzantine-muted, so generated schedules cannot trivially destroy
	// every quorum. Default: (len(Nodes)-1)/2, the crash-fault bound.
	MaxDown int
	// MinWindow/MaxWindow bound each fault's active window in ticks.
	// Defaults: 10 and Horizon/3.
	MinWindow, MaxWindow int
	// MaxRate bounds drop/dup burst rates. Default 0.4.
	MaxRate float64
}

// DefaultClasses is the crash-model fault mix every protocol family
// should survive.
var DefaultClasses = []Op{OpCrash, OpPartition, OpCutLink, OpDelaySet}

// AllClasses includes the network-abuse and byzantine classes too.
// OpRemoveNode is in neither: membership churn needs a MemberTarget, so
// campaigns opt in per protocol (explore's "raft-member" harness).
var AllClasses = []Op{OpCrash, OpPartition, OpCutLink, OpDelaySet, OpDropRate, OpDupRate, OpByzantine}

func (g GenConfig) withDefaults() GenConfig {
	if len(g.Classes) == 0 {
		g.Classes = DefaultClasses
	}
	if g.MaxDown <= 0 {
		g.MaxDown = (len(g.Nodes) - 1) / 2
	}
	if g.MinWindow <= 0 {
		g.MinWindow = 10
	}
	if g.MaxWindow <= 0 {
		g.MaxWindow = g.Horizon / 3
	}
	if g.MaxWindow < g.MinWindow {
		g.MaxWindow = g.MinWindow
	}
	if g.MaxRate <= 0 {
		g.MaxRate = 0.4
	}
	return g
}

// byzModes are the canned interceptor modes runner.ArmByzantine knows.
var byzModes = []string{"mute", "dup"}

// window is a half-open active interval of one generated fault.
type window struct{ start, end int }

// overlapping counts how many of ws overlap [start, end).
func overlapping(ws []window, start, end int) int {
	n := 0
	for _, w := range ws {
		if start < w.end && w.start < end {
			n++
		}
	}
	return n
}

// Generate draws a random schedule from rng under cfg's budget. The
// result is deterministic in (rng state, cfg): campaign sweeps derive
// rng from the run seed and record only (seed, schedule) in reproducers.
//
// Every generated fault is an initiate/recover pair with start < end.
// Structural constraints keep schedules meaningful rather than
// degenerate: at most MaxDown nodes are down (crashed or muted) at once
// and at most one node-wise fault window is open per node; partition,
// drop and dup faults never overlap a window of their own class (their
// recovery ops clear global state).
func Generate(rng *simnet.RNG, cfg GenConfig) Schedule {
	cfg = cfg.withDefaults()
	var s Schedule
	if len(cfg.Nodes) == 0 || cfg.Horizon <= 0 || cfg.Faults <= 0 {
		return s
	}
	// Faults start early enough that their windows close inside the
	// horizon, leaving the last quarter for recovery/liveness.
	lastRecovery := cfg.Horizon * 3 / 4
	if lastRecovery < 2 {
		lastRecovery = cfg.Horizon
	}

	downWindows := map[types.NodeID][]window{} // crash + byz-mute per node
	classWindows := map[Op][]window{}          // partition/drop/dup exclusivity
	linkWindows := map[string][]window{}       // per directed link, per class

	// downAt counts nodes down during [start, end) if we add a window on
	// node n — approximated as max concurrent windows, which is exact
	// here because each node holds at most one open window at a time.
	downAt := func(start, end int) int {
		n := 0
		for _, node := range det.SortedKeys(downWindows) {
			if overlapping(downWindows[node], start, end) > 0 {
				n++
			}
		}
		return n
	}

	for i := 0; i < cfg.Faults; i++ {
		op := cfg.Classes[rng.Intn(len(cfg.Classes))]
		maxStart := lastRecovery - cfg.MinWindow
		if maxStart < 1 {
			maxStart = 1
		}
		start := rng.Intn(maxStart)
		end := start + rng.Range(cfg.MinWindow, cfg.MaxWindow)
		if end > lastRecovery {
			end = lastRecovery
		}
		if end <= start {
			end = start + 1
		}

		switch op {
		case OpRemoveNode:
			// One membership change at a time (the protocols allow one
			// conf change in flight), and a removed node counts against
			// the down budget until it is re-admitted.
			if overlapping(classWindows[op], start, end) > 0 {
				continue
			}
			node := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
			if overlapping(downWindows[node], start, end) > 0 {
				continue
			}
			if downAt(start, end) >= cfg.MaxDown {
				continue
			}
			classWindows[op] = append(classWindows[op], window{start, end})
			downWindows[node] = append(downWindows[node], window{start, end})
			s.Events = append(s.Events,
				Event{At: start, Op: OpRemoveNode, Node: node},
				Event{At: end, Op: OpAddNode, Node: node})

		case OpCrash, OpByzantine:
			node := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
			mode := ""
			if op == OpByzantine {
				mode = byzModes[rng.Intn(len(byzModes))]
			}
			countsDown := op == OpCrash || mode == "mute"
			if overlapping(downWindows[node], start, end) > 0 {
				continue // node already busy in this window
			}
			if countsDown && downAt(start, end) >= cfg.MaxDown {
				continue // would exceed the simultaneous-down budget
			}
			if countsDown {
				downWindows[node] = append(downWindows[node], window{start, end})
			}
			s.Events = append(s.Events,
				Event{At: start, Op: op, Node: node, Mode: mode},
				Event{At: end, Op: op.Recovery(), Node: node})

		case OpPartition:
			if overlapping(classWindows[op], start, end) > 0 {
				continue // Heal clears all groups: one partition at a time
			}
			groups := randomSplit(rng, cfg.Nodes)
			classWindows[op] = append(classWindows[op], window{start, end})
			s.Events = append(s.Events,
				Event{At: start, Op: OpPartition, Groups: groups},
				Event{At: end, Op: OpHeal})

		case OpDropRate, OpDupRate:
			if overlapping(classWindows[op], start, end) > 0 {
				continue // recovery resets the global rate
			}
			rate := rng.Float64() * cfg.MaxRate
			classWindows[op] = append(classWindows[op], window{start, end})
			s.Events = append(s.Events,
				Event{At: start, Op: op, Rate: rate},
				Event{At: end, Op: op.Recovery()})

		case OpCutLink, OpDelaySet:
			from := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
			to := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
			if from == to {
				continue
			}
			e := Event{At: start, Op: op, From: from, To: to}
			key := e.Key()
			if overlapping(linkWindows[key], start, end) > 0 {
				continue // this link already has an open window of this class
			}
			if op == OpDelaySet {
				e.Lo = rng.Range(2, 6)
				e.Hi = e.Lo + rng.Intn(10)
			}
			linkWindows[key] = append(linkWindows[key], window{start, end})
			rec := Event{At: end, Op: op.Recovery(), From: from, To: to}
			s.Events = append(s.Events, e, rec)
		}
	}
	s.Normalize()
	return s
}

// randomSplit partitions nodes into two non-empty groups.
func randomSplit(rng *simnet.RNG, nodes []types.NodeID) [][]types.NodeID {
	perm := rng.Perm(len(nodes))
	cut := 1
	if len(nodes) > 2 {
		cut = 1 + rng.Intn(len(nodes)-1)
	}
	a := make([]types.NodeID, 0, cut)
	b := make([]types.NodeID, 0, len(nodes)-cut)
	for i, p := range perm {
		if i < cut {
			a = append(a, nodes[p])
		} else {
			b = append(b, nodes[p])
		}
	}
	return [][]types.NodeID{a, b}
}
