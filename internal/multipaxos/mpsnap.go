package multipaxos

import (
	"slices"

	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Log compaction, state-transfer catch-up, and alpha-delayed
// reconfiguration.
//
// Compaction drops the log's slots at or below a frontier the
// host has already applied, keeping an encoded snapshot instead. A
// lagging replica whose catch-up request starts in the compacted range
// receives the whole snapshot in one MsgState (multipaxos messages
// already carry full commit batches, so chunking stays a raft-only
// concern) and then re-requests the uncompacted suffix.
//
// Membership follows the slot-scheduled rule from SMR reconfiguration
// literature (and the ISSUE's i+alpha requirement): a config change
// chosen at slot i takes effect for slots >= i+Alpha. Every replica
// schedules the epoch during the same deterministic frontier advance,
// so no replica ever sizes a quorum for slot s with a different member
// set than its peers.

// Alpha is the reconfiguration pipeline delay: a config chosen at slot
// i governs slots i+Alpha and later, leaving the in-flight window
// [i+1, i+Alpha) under the old config.
const Alpha = 8

// cfgEpoch is one membership epoch: members govern slots >= from.
type cfgEpoch struct {
	from    types.Seq
	members []types.NodeID
}

// membersFor returns the member set governing slot.
func (n *Node) membersFor(slot types.Seq) []types.NodeID {
	for i := len(n.configs) - 1; i >= 0; i-- {
		if n.configs[i].from <= slot {
			return n.configs[i].members
		}
	}
	return n.configs[0].members
}

// latestMembers returns the newest epoch's member set, active or not.
func (n *Node) latestMembers() []types.NodeID {
	return n.configs[len(n.configs)-1].members
}

// quorumsFor returns how many votes end phase 1 and how many end phase
// 2 for slot: the configured Flexible pair, else a majority of the
// slot's member set for both.
func (n *Node) quorumsFor(slot types.Seq) (q1, q2 int) {
	if n.cfg.flexible() {
		return n.cfg.Quorums.Q1, n.cfg.Quorums.Q2
	}
	m := quorum.Majority{N: len(n.membersFor(slot))}.Threshold()
	return m, m
}

func (n *Node) isMember(id types.NodeID) bool {
	for _, p := range n.latestMembers() {
		if p == id {
			return true
		}
	}
	return false
}

// Members returns the newest epoch's member set.
func (n *Node) Members() []types.NodeID {
	return append([]types.NodeID(nil), n.latestMembers()...)
}

// SnapshotIndex returns the highest compacted slot (0 = dense log).
func (n *Node) SnapshotIndex() types.Seq { return n.compactSeq }

// TakeInstalledSnapshot drains the most recently installed snapshot so
// the host can restore its executor before consuming further decisions.
func (n *Node) TakeInstalledSnapshot() *snapshot.Snapshot {
	s := n.installed
	n.installed = nil
	return s
}

// confAllowed vets a membership change at the proposer: well-formed,
// not a no-op, never empties the cluster, and at most one in flight —
// the i+Alpha schedule assumes changes apply in choose order, which a
// second overlapping change could violate under leader turnover. A
// Flexible pair is sized for the bootstrap members (Q1+Q2 > N stops
// holding as N grows), so a node configured with one refuses them all.
func (n *Node) confAllowed(v types.Value) bool {
	cc, err := snapshot.DecodeConfChange(v)
	if err != nil || n.cfg.flexible() {
		return false
	}
	if len(n.configs) > 0 && n.configs[len(n.configs)-1].from > n.commitSeq {
		return false // an epoch is still waiting to activate
	}
	for s := n.commitSeq + 1; s < n.nextSlot; s++ {
		if sl := n.log.get(s); sl != nil && sl.votes != nil && snapshot.IsConfChange(sl.val) {
			return false
		}
	}
	ms := n.latestMembers()
	switch cc.Op {
	case snapshot.ConfAdd:
		return !n.isMember(cc.Node)
	case snapshot.ConfRemove:
		return n.isMember(cc.Node) && len(ms) > 1
	}
	return false
}

// Compact deletes every chosen and accepted slot at or below upTo,
// which must not exceed the commit frontier (the host must have applied
// them), replacing the prefix with a snapshot whose application payload
// is state. The snapshot's single member set summarizes epochs active
// by upTo+1; any later epoch survives only as its conf entry in the
// suffix, so compaction is refused when it would delete such an entry
// (upTo at or past a choose slot whose epoch activates above upTo+1).
// Reports whether anything was compacted.
func (n *Node) Compact(upTo types.Seq, state []byte) bool {
	if upTo <= n.compactSeq || upTo > n.commitSeq {
		return false
	}
	for _, e := range n.configs {
		if e.from > upTo+1 && e.from-Alpha <= upTo {
			return false
		}
	}
	snap := snapshot.Snapshot{
		LastIndex: upTo, LastTerm: n.ballot.Num,
		Members: append([]types.NodeID(nil), n.membersFor(upTo+1)...),
		State:   state,
	}
	n.snapData = snapshot.Encode(snap)
	n.compactSeq = upTo
	n.log.dropThrough(upTo)
	// Collapse epochs: everything at or below upTo+1 is summarized by
	// the snapshot's member set.
	eff := cfgEpoch{from: 0, members: snap.Members}
	keep := []cfgEpoch{eff}
	for _, e := range n.configs {
		if e.from > upTo+1 {
			keep = append(keep, e)
		}
	}
	n.configs = keep
	return true
}

// onState installs a state-transfer snapshot at a lagging replica,
// fast-forwarding its commit frontier past the sender's compacted
// prefix. Anything newer than the snapshot arrives through the normal
// catch-up path afterwards.
func (n *Node) onState(m Message) {
	snap, err := snapshot.Decode(m.Val)
	if err != nil || snap.LastIndex <= n.commitSeq {
		return // corrupt or stale: ignore, catch-up will retry
	}
	n.commitSeq = snap.LastIndex
	n.compactSeq = snap.LastIndex
	n.snapData = append([]byte(nil), m.Val...)
	n.log.dropThrough(snap.LastIndex)
	// Undrained decisions below the snapshot are subsumed by the
	// installed state the host restores from.
	n.decisions = nil
	ms := append([]types.NodeID(nil), snap.Members...)
	slices.Sort(ms)
	n.configs = []cfgEpoch{{from: 0, members: ms}}
	cp := snap
	n.installed = &cp
	// Chosen slots that arrived before the install may now sit directly
	// above the new frontier; emit them before asking for more.
	n.advanceFrontier()
	// Pull the uncompacted suffix immediately.
	if m.Commit > n.commitSeq {
		n.send(Message{Kind: MsgCatchup, To: m.From, Slot: n.commitSeq + 1})
	}
}
