package replog

import (
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Core is what a replication node of message type M keeps for its host
// and its journal: the outbox, the decision stream, the snapshot, the
// compaction hold and the mark of what changed since the last Sync.
// raft.Node and multipaxos.Node embed it.
type Core[M any] struct {
	types.Outbox[M]
	types.Decisions
	synced
	installed *snapshot.Snapshot // the last one installed, until TakeInstalledSnapshot
	hold      int                // ticks Compact still refuses: a transfer this node serves would start over
}

// synced is the part of a Core a Persister reads.
type synced struct {
	unsynced  types.Seq // lowest index changed since the last Sync; 0 = none
	snapIndex types.Seq // everything at or below it lives only in snapData
	snapData  []byte
}

// journal hands a Persister what it reads; only a type that embeds a
// Core has it, so only such a node is Durable.
func (s *synced) journal() *synced { return s }

// Touch records that the entry at index i changed, for Persister.Sync.
func (s *synced) Touch(i types.Seq) {
	if s.unsynced == 0 || i < s.unsynced {
		s.unsynced = i
	}
}

// SnapshotIndex returns the highest compacted index (0 = dense log).
func (s *synced) SnapshotIndex() types.Seq { return s.snapIndex }

// Snapshot returns the encoded snapshot, or nil before the first.
func (s *synced) Snapshot() []byte { return s.snapData }

// Compacted keeps snap, which covers everything through its LastIndex.
func (c *Core[M]) Compacted(snap snapshot.Snapshot) {
	c.snapIndex, c.snapData = snap.LastIndex, snapshot.Encode(snap)
}

// Installed keeps snap, encoded as raw, and surfaces it to the host.
// Undrained decisions below it are subsumed by the state it carries.
func (c *Core[M]) Installed(snap *snapshot.Snapshot, raw []byte) {
	c.snapIndex, c.snapData, c.installed, c.Decisions = snap.LastIndex, raw, snap, types.Decisions{}
}

// TakeInstalledSnapshot drains the most recently installed snapshot, if
// any, so the host can restore its executor and state machine before
// consuming further decisions.
func (c *Core[M]) TakeInstalledSnapshot() *snapshot.Snapshot {
	s := c.installed
	c.installed = nil
	return s
}

// HoldCompact makes Compact refuse for the next ticks ticks.
func (c *Core[M]) HoldCompact(ticks int) { c.hold = ticks }

// TickHold counts one tick off the hold.
func (c *Core[M]) TickHold() { c.hold = max(c.hold-1, 0) }

// CompactHeld reports whether Compact refuses for now: a snapshot
// transfer this node serves is under way.
func (c *Core[M]) CompactHeld() bool { return c.hold > 0 }
