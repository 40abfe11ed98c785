// Package nemesis is a declarative, seeded fault-schedule language for
// the deterministic simulation substrate. The paper's taxonomy is
// fundamentally about *what each protocol survives* — crash vs.
// byzantine failure models, quorum intersection under partitions, view
// change under leader loss — and the discriminating behaviour of
// consensus protocols lives in fault schedules, not the happy path
// (Gray & Lamport's 2PC-blocks-but-Paxos-Commit-doesn't; Howard &
// Mortier's Paxos-vs-Raft differences appearing only under leader
// failure). This package makes those schedules first-class values:
//
//   - A Schedule is a list of tick-indexed Events — timed crash/restart,
//     partition/heal, link cut/restore, delay storms, drop storms,
//     message-dup bursts, byzantine interceptor arming — applied through
//     a small Target interface that *runner.Cluster[M] satisfies.
//   - Generate draws random schedules from a seeded RNG under a fault
//     budget, so a campaign can sweep (seed × schedule) space.
//   - Spec (spec.go) serializes a (protocol, cluster size, seed,
//     horizon, schedule) tuple to a replayable text reproducer.
//
// Every fault is a *pair* of events — an initiating event and its
// matching recovery (crash→restart, partition→heal, cut→restore,
// delay→cleardelay, drop→cleardrop, dup→cleardup, byz→clearbyz,
// rmnode→addnode) — which is what lets the shrinker in internal/explore
// drop whole faults and shorten fault windows while keeping schedules
// well-formed. The pairing is the numbering (an initiating Op is odd and
// its recovery is the next one), and one table, ops, holds each op's
// spec keyword and scope, which every per-op question reads.
package nemesis

import (
	"fmt"
	"sort"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/types"
)

// Op enumerates fault-schedule operations. Ops come in initiate/recover
// pairs numbered so that every initiating op is odd and its recovery is
// the next op; IsRecovery, Recovery and Initiator read that numbering.
type Op uint8

const (
	OpCrash Op = iota + 1 // pause a node and take it off the network
	OpRestart
	OpPartition // split the cluster into non-communicating groups
	OpHeal
	OpCutLink // sever one directed link (asymmetric link failure)
	OpRestoreLink
	OpDelaySet // override one directed link's delay bounds (delay storm)
	OpDelayClear
	OpDropRate // raise the fabric-wide loss probability (drop storm)
	OpDropClear
	OpDupRate // raise the fabric-wide duplication probability (dup burst)
	OpDupClear
	OpByzantine // arm a canned byzantine outbox interceptor
	OpByzClear
	OpRemoveNode // vote a member out of the cluster (and kill it)
	OpAddNode    // re-admit it as a fresh, stateless joiner
)

// scope is what an op acts on: which Event fields it reads, the
// arguments it takes in a spec, and what Key matches its pair on.
type scope uint8

const (
	scopeNone      scope = iota // nothing: the tick alone
	scopeNode                   // Node
	scopeLink                   // the directed link From→To
	scopePartition              // Groups
	scopeRate                   // a fabric-wide Rate
)

// ops is the op table: each op's spec keyword and scope, indexed by Op.
var ops = [...]struct {
	keyword string
	scope   scope
}{
	OpCrash:       {"crash", scopeNode},
	OpRestart:     {"restart", scopeNode},
	OpPartition:   {"partition", scopePartition},
	OpHeal:        {"heal", scopeNone},
	OpCutLink:     {"cut", scopeLink},
	OpRestoreLink: {"restore", scopeLink},
	OpDelaySet:    {"delay", scopeLink},
	OpDelayClear:  {"cleardelay", scopeLink},
	OpDropRate:    {"drop", scopeRate},
	OpDropClear:   {"cleardrop", scopeNone},
	OpDupRate:     {"dup", scopeRate},
	OpDupClear:    {"cleardup", scopeNone},
	OpByzantine:   {"byz", scopeNode},
	OpByzClear:    {"clearbyz", scopeNode},
	OpRemoveNode:  {"rmnode", scopeNode},
	OpAddNode:     {"addnode", scopeNode},
}

func (o Op) valid() bool { return o >= OpCrash && int(o) < len(ops) }

func (o Op) scope() scope {
	if !o.valid() {
		return scopeNone
	}
	return ops[o].scope
}

// String returns the op's spec-file keyword.
func (o Op) String() string {
	if !o.valid() {
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
	return ops[o].keyword
}

// Class names the fault family for survival-matrix rows: the initiating
// op's keyword ("crash", "partition", ...). Recovery ops share their
// initiator's class.
func (o Op) Class() string { return o.Initiator().String() }

// IsRecovery reports whether o is the recovery half of a fault pair.
func (o Op) IsRecovery() bool { return o.valid() && o%2 == 0 }

// Recovery returns the op that undoes o (o itself if already a recovery).
func (o Op) Recovery() Op {
	if o.valid() && !o.IsRecovery() {
		return o + 1
	}
	return o
}

// Initiator returns the op that o undoes (o itself if already an
// initiator).
func (o Op) Initiator() Op {
	if o.IsRecovery() {
		return o - 1
	}
	return o
}

// Event is one timed fault action. Which fields are meaningful depends
// on Op:
//
//	Crash/Restart/Byzantine/ByzClear  Node (Byzantine also Mode)
//	RemoveNode/AddNode                Node
//	Partition                         Groups
//	CutLink/RestoreLink               From, To
//	DelaySet                          From, To, Lo, Hi
//	DelayClear                        From, To
//	DropRate/DupRate                  Rate
//	Heal/DropClear/DupClear           (none)
type Event struct {
	At     int // tick at which the event fires (0 = before the first step)
	Op     Op
	Node   types.NodeID
	From   types.NodeID
	To     types.NodeID
	Groups [][]types.NodeID
	Lo, Hi int
	Rate   float64
	Mode   string
}

// Key identifies what an event acts on, so an initiating event can be
// matched with its recovery: node ops match on the node, link ops on the
// directed link, and the rest on the op family alone (partition, drop
// and dup are one global state each).
func (e Event) Key() string {
	switch e.Op.scope() {
	case scopeNode:
		return e.Op.Class() + ":" + e.Node.String()
	case scopeLink:
		return e.Op.Class() + ":" + e.From.String() + ">" + e.To.String()
	}
	return e.Op.Class()
}

// Target is the surface a schedule is applied through. *runner.Cluster[M]
// satisfies it for every message type M, so nemesis stays non-generic
// and protocol-agnostic. ByzTarget is the optional extension for
// byzantine arming; the runner's clusters implement that too.
type Target interface {
	Crash(types.NodeID)
	Restart(types.NodeID)
	Partition(groups ...[]types.NodeID)
	Heal()
	CutLink(from, to types.NodeID)
	RestoreLink(from, to types.NodeID)
	SetLinkDelay(from, to types.NodeID, lo, hi int)
	ClearLinkDelay(from, to types.NodeID)
	SetDropRate(p float64)
	ClearDropRate()
	SetDupRate(p float64)
	ClearDupRate()
}

// ByzTarget arms canned byzantine interceptors (runner.Cluster's
// ArmByzantine modes). Byzantine events are silently skipped on targets
// that don't implement it.
type ByzTarget interface {
	ArmByzantine(id types.NodeID, mode string)
	DisarmByzantine(id types.NodeID)
}

// MemberTarget drives dynamic membership: RemoveNode votes a member out
// of the cluster (and typically kills it), AddNode re-admits the same ID
// as a fresh, stateless joiner that must catch up from the survivors.
// How the target realizes the change (conf entries, retries under
// leader churn) is its business. Membership events are silently skipped
// on targets that don't implement it.
type MemberTarget interface {
	AddNode(id types.NodeID)
	RemoveNode(id types.NodeID)
}

// Schedule is an ordered list of fault events.
type Schedule struct {
	Events []Event
}

// Normalize sorts events by tick, keeping the relative order of
// same-tick events stable (generation/parse order breaks ties), and
// returns the schedule for chaining.
func (s *Schedule) Normalize() *Schedule {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

// FaultCount returns the number of initiating (non-recovery) events —
// the schedule's fault budget spent. This is the measure the shrinker
// minimizes.
func (s *Schedule) FaultCount() int {
	n := 0
	for _, e := range s.Events {
		if !e.Op.IsRecovery() {
			n++
		}
	}
	return n
}

// Classes returns the sorted, deduplicated fault classes present.
func (s *Schedule) Classes() []string {
	seen := map[string]bool{}
	for _, e := range s.Events {
		seen[e.Op.Class()] = true
	}
	return det.SortedKeys(seen)
}

// MaxTick returns the largest event tick (0 for an empty schedule).
func (s *Schedule) MaxTick() int {
	max := 0
	for _, e := range s.Events {
		if e.At > max {
			max = e.At
		}
	}
	return max
}

// Validate rejects events that a Target could not apply meaningfully:
// negative ticks, partitions with fewer than two groups, rates outside
// [0,1] (NaN included), byzantine events without a mode, unknown ops.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		switch {
		case e.At < 0:
			return fmt.Errorf("nemesis: event %d (%s): negative tick %d", i, e.Op, e.At)
		case !e.Op.valid():
			return fmt.Errorf("nemesis: event %d: unknown op %d", i, uint8(e.Op))
		case e.Op == OpPartition && len(e.Groups) < 2:
			return fmt.Errorf("nemesis: event %d: partition needs >= 2 groups", i)
		case e.Op.scope() == scopeRate && !(e.Rate >= 0 && e.Rate <= 1):
			return fmt.Errorf("nemesis: event %d (%s): rate %v outside [0,1]", i, e.Op, e.Rate)
		case e.Op == OpByzantine && e.Mode == "":
			return fmt.Errorf("nemesis: event %d: byzantine event without mode", i)
		}
	}
	return nil
}

// apply performs one event against t.
func apply(t Target, e Event) {
	switch e.Op {
	case OpCrash:
		t.Crash(e.Node)
	case OpRestart:
		t.Restart(e.Node)
	case OpPartition:
		t.Partition(e.Groups...)
	case OpHeal:
		t.Heal()
	case OpCutLink:
		t.CutLink(e.From, e.To)
	case OpRestoreLink:
		t.RestoreLink(e.From, e.To)
	case OpDelaySet:
		t.SetLinkDelay(e.From, e.To, e.Lo, e.Hi)
	case OpDelayClear:
		t.ClearLinkDelay(e.From, e.To)
	case OpDropRate:
		t.SetDropRate(e.Rate)
	case OpDropClear:
		t.ClearDropRate()
	case OpDupRate:
		t.SetDupRate(e.Rate)
	case OpDupClear:
		t.ClearDupRate()
	case OpByzantine:
		if bt, ok := t.(ByzTarget); ok {
			bt.ArmByzantine(e.Node, e.Mode)
		}
	case OpByzClear:
		if bt, ok := t.(ByzTarget); ok {
			bt.DisarmByzantine(e.Node)
		}
	case OpRemoveNode:
		if mt, ok := t.(MemberTarget); ok {
			mt.RemoveNode(e.Node)
		}
	case OpAddNode:
		if mt, ok := t.(MemberTarget); ok {
			mt.AddNode(e.Node)
		}
	}
}

// Injector walks a normalized schedule, applying events as logical time
// passes. One injector serves one run; build a fresh one to replay.
type Injector struct {
	events []Event
	next   int
}

// NewInjector builds an injector over a copy of s, normalized.
func NewInjector(s Schedule) *Injector {
	events := make([]Event, len(s.Events))
	copy(events, s.Events)
	sched := Schedule{Events: events}
	sched.Normalize()
	return &Injector{events: sched.Events}
}

// Fire applies every not-yet-applied event with At <= now, in order,
// and returns how many fired. Call it once per tick before stepping the
// cluster: an event at tick T acts on the state the cluster is in when
// tick T begins.
func (in *Injector) Fire(t Target, now int) int {
	fired := 0
	for in.next < len(in.events) && in.events[in.next].At <= now {
		apply(t, in.events[in.next])
		in.next++
		fired++
	}
	return fired
}

// Done reports whether every event has fired.
func (in *Injector) Done() bool { return in.next >= len(in.events) }
