// Package simnet is the deterministic network substrate every protocol in
// this repository runs on. The paper's protocols were designed for (and
// evaluated on) real datacenter and wide-area networks; we substitute a
// discrete-event message fabric whose delays, losses, and partitions are
// drawn from a seeded generator. Protocol-level results — phase counts,
// message complexity, quorum waits, fork rates — depend only on message
// ordering and delay ratios, which the fabric reproduces while making
// every schedule replayable from a seed.
//
// The fabric itself is not generic: it answers, per message, "how long
// does a send from A to B take, and is it lost?". The generic part —
// queueing typed protocol messages and stepping nodes — lives in
// internal/runner.
package simnet

import (
	"fortyconsensus/internal/types"
)

// Verdict is the fabric's ruling on a single message send.
type Verdict struct {
	// Drop, when true, means the message is silently lost.
	Drop bool
	// Delay is the delivery latency in ticks (>= 1 when not dropped).
	Delay int
}

// Options configures a Fabric. The zero value is usable: a reliable
// network with uniform delays in [1, 1].
type Options struct {
	// MinDelay and MaxDelay bound per-message latency in ticks.
	// Defaults: 1 and max(1, MinDelay).
	MinDelay, MaxDelay int
	// DropRate is the probability in [0,1] that a message is lost.
	DropRate float64
	// DupRate is the probability in [0,1] that a message is delivered
	// twice (at independent delays). Protocols must tolerate duplicates.
	DupRate float64
	// Seed seeds the fabric's private RNG.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MinDelay <= 0 {
		o.MinDelay = 1
	}
	if o.MaxDelay < o.MinDelay {
		o.MaxDelay = o.MinDelay
	}
	return o
}

// link identifies a directed pair of nodes.
type link struct{ from, to types.NodeID }

// Fabric makes deterministic per-message delay/drop/duplicate decisions
// and tracks the cluster's partition state. It is not safe for concurrent
// use; the runner drives it from a single goroutine.
type Fabric struct {
	opt  Options
	base Options // construction-time options, for Clear* restores
	rng  *RNG

	// partition maps each node to a group number; nodes in different
	// groups cannot exchange messages. Empty map = fully connected.
	partition map[types.NodeID]int
	// downed nodes neither send nor receive.
	downed map[types.NodeID]bool
	// linkDelay overrides delay bounds for specific directed links.
	linkDelay map[link][2]int
	// linkCut severs specific directed links.
	linkCut map[link]bool
}

// NewFabric builds a fabric with the given options.
func NewFabric(opt Options) *Fabric {
	opt = opt.withDefaults()
	return &Fabric{
		opt:       opt,
		base:      opt,
		rng:       NewRNG(opt.Seed),
		partition: make(map[types.NodeID]int),
		downed:    make(map[types.NodeID]bool),
		linkDelay: make(map[link][2]int),
		linkCut:   make(map[link]bool),
	}
}

// Classify rules on one message from -> to. A second true return value
// in dup requests an extra delivery with its own verdict.
func (f *Fabric) Classify(from, to types.NodeID) (v Verdict, dup Verdict, hasDup bool) {
	if f.Blocked(from, to) {
		return Verdict{Drop: true}, Verdict{}, false
	}
	if f.opt.DropRate > 0 && f.rng.Bool(f.opt.DropRate) {
		return Verdict{Drop: true}, Verdict{}, false
	}
	v = Verdict{Delay: f.delay(from, to)}
	if f.opt.DupRate > 0 && f.rng.Bool(f.opt.DupRate) {
		return v, Verdict{Delay: f.delay(from, to)}, true
	}
	return v, Verdict{}, false
}

// delay draws one delivery latency. The len guard skips the per-link
// override lookup — a map hash per message — on the common fast path
// where no link overrides exist. The RNG is always consumed for
// non-loopback sends (even when lo == hi) so that enabling or disabling
// link overrides never shifts the replay stream.
func (f *Fabric) delay(from, to types.NodeID) int {
	lo, hi := f.opt.MinDelay, f.opt.MaxDelay
	if len(f.linkDelay) > 0 {
		if d, ok := f.linkDelay[link{from, to}]; ok {
			lo, hi = d[0], d[1]
		}
	}
	if from == to {
		return 1 // local loopback still costs one tick to keep causality
	}
	return f.rng.Range(lo, hi)
}

// Blocked reports whether from cannot currently reach to. Each fault
// table is consulted only when non-empty, so a fault-free fabric rules
// on a message without a single map access.
func (f *Fabric) Blocked(from, to types.NodeID) bool {
	if len(f.downed) > 0 && (f.downed[from] || f.downed[to]) {
		return true
	}
	if len(f.linkCut) > 0 && f.linkCut[link{from, to}] {
		return true
	}
	if len(f.partition) > 0 && f.partition[from] != f.partition[to] {
		return true
	}
	return false
}

// Partition divides nodes into groups that cannot communicate across
// group boundaries. Each argument slice is one group; nodes not listed
// land in group 0. Call Heal to remove the partition.
func (f *Fabric) Partition(groups ...[]types.NodeID) {
	f.partition = make(map[types.NodeID]int)
	for g, nodes := range groups {
		for _, n := range nodes {
			f.partition[n] = g + 1
		}
	}
}

// Heal removes any partition.
func (f *Fabric) Heal() { f.partition = make(map[types.NodeID]int) }

// Crash takes a node off the network: its in-flight and future messages
// are dropped until Restart.
func (f *Fabric) Crash(n types.NodeID) { f.downed[n] = true }

// Restart reconnects a crashed node.
func (f *Fabric) Restart(n types.NodeID) { delete(f.downed, n) }

// Down reports whether n is currently crashed.
func (f *Fabric) Down(n types.NodeID) bool {
	return len(f.downed) > 0 && f.downed[n]
}

// SetLinkDelay overrides the delay bounds for the directed link from->to.
// Bounds are validated so generated delay storms can never reach
// rng.Range with an inverted or non-positive interval: swapped bounds
// (lo > hi) are reordered, and anything below one tick is clamped to
// one, mirroring Options.withDefaults.
func (f *Fabric) SetLinkDelay(from, to types.NodeID, lo, hi int) {
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 1 {
		lo = 1
	}
	if hi < 1 {
		hi = 1
	}
	f.linkDelay[link{from, to}] = [2]int{lo, hi}
}

// ClearLinkDelay removes a per-link delay override, restoring the
// fabric-wide bounds for from->to.
func (f *Fabric) ClearLinkDelay(from, to types.NodeID) {
	delete(f.linkDelay, link{from, to})
}

// CutLink severs the directed link from->to; RestoreLink undoes it.
func (f *Fabric) CutLink(from, to types.NodeID)     { f.linkCut[link{from, to}] = true }
func (f *Fabric) RestoreLink(from, to types.NodeID) { delete(f.linkCut, link{from, to}) }

// clampRate confines a probability to [0,1].
func clampRate(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// SetDropRate overrides the fabric-wide message loss probability (a
// nemesis "drop storm"); ClearDropRate restores the construction-time
// rate. Note that raising a rate from zero makes Classify start
// consuming the RNG for drop decisions, so the delay stream shifts —
// a run's schedule is reproducible from (seed, fault schedule), not
// from the seed alone.
func (f *Fabric) SetDropRate(p float64) { f.opt.DropRate = clampRate(p) }

// ClearDropRate restores the construction-time drop rate.
func (f *Fabric) ClearDropRate() { f.opt.DropRate = f.base.DropRate }

// SetDupRate overrides the fabric-wide duplication probability (a
// nemesis "dup burst"); ClearDupRate restores the construction-time
// rate. The same RNG-stream caveat as SetDropRate applies.
func (f *Fabric) SetDupRate(p float64) { f.opt.DupRate = clampRate(p) }

// ClearDupRate restores the construction-time duplication rate.
func (f *Fabric) ClearDupRate() { f.opt.DupRate = f.base.DupRate }
