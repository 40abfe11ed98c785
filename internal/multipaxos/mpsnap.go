package multipaxos

import (
	"fmt"
	"slices"

	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// Log compaction, state-transfer catch-up, and alpha-delayed
// reconfiguration.
//
// Compaction drops the log's slots at or below a frontier the
// host has already applied, keeping an encoded snapshot instead. A
// lagging replica whose catch-up request starts in the compacted range
// pulls the snapshot in raft's chunks: each MsgCatchup names the offset
// its snapshot.Receiver wants, the MsgStates answering it carry the
// chunks from there to the end of that snapshot.Window, and the
// installed replica then asks for the uncompacted suffix.
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
		if sl := n.log.Get(s); sl != nil && sl.votes != nil && snapshot.IsConfChange(sl.val) {
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
// (upTo at or past a choose slot whose epoch activates above upTo+1),
// and while this replica serves a snapshot transfer (CompactHeld).
// Reports whether anything was compacted. A leader first pushes each
// follower not yet sent upTo: a tick's lag is not worth a snapshot.
//
// The snapshot's LastTerm is 0: Multi-Paxos never reads it, and a
// replica's ballot is no fact about slot upTo, so every replica that
// compacts upTo with the same state writes the same bytes — which a
// transfer that switches sender mid-way relies on.
func (n *Node) Compact(upTo types.Seq, state []byte) bool {
	if upTo <= n.SnapshotIndex() || upTo > n.commitSeq || n.CompactHeld() {
		return false
	}
	for _, e := range n.configs {
		if e.from > upTo+1 && e.from-Alpha <= upTo {
			return false
		}
	}
	if n.role == leader {
		for _, p := range n.latestMembers() {
			if pr := n.prs[p]; pr != nil && pr.sent < upTo {
				n.push(p, pr, n.nextSlot-1)
			}
		}
		n.pushRemoved()
	}
	snap := snapshot.Snapshot{
		LastIndex: upTo,
		Members:   append([]types.NodeID(nil), n.membersFor(upTo+1)...),
		State:     state,
	}
	n.Compacted(snap)
	n.log.DropThrough(upTo)
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

// onState takes one chunk of a state-transfer snapshot at a lagging
// replica and asks for the next. The last chunk installs it,
// fast-forwarding the commit frontier past the sender's compacted
// prefix; anything newer arrives through the normal catch-up path.
func (n *Node) onState(m Message) {
	if m.Slot <= n.commitSeq {
		return // stale: the frontier is past this snapshot
	}
	from := n.recv.Offset()
	raw, snap, _ := n.recv.Take(m.Slot, int(m.Offset), m.Val, m.Done)
	if snap == nil {
		// Ask for the next window once this one is whole; a lost chunk
		// is asked for again at the heartbeat (Stalled).
		if n.recv.Offset()/snapshot.Window > from/snapshot.Window {
			n.catchup(m.From)
		}
		return
	}
	n.installSnapshot(snap, raw)
	// Chosen slots that arrived before the install may now sit directly
	// above the new frontier; emit them before asking for more.
	n.advanceFrontier()
	// Pull the uncompacted suffix immediately.
	if m.Commit > n.commitSeq {
		n.catchup(m.From)
	}
}

// installSnapshot replaces the node's compacted prefix, commit frontier
// and membership with the snapshot's, keeping raw, its encoding. The
// caller guarantees snap.LastIndex > commitSeq.
func (n *Node) installSnapshot(snap *snapshot.Snapshot, raw []byte) {
	n.commitSeq = snap.LastIndex
	n.Installed(snap, raw)
	n.log.DropThrough(snap.LastIndex)
	ms := append([]types.NodeID(nil), snap.Members...)
	slices.Sort(ms)
	n.configs = []cfgEpoch{{from: 0, members: ms}}
}

// catchup asks replica to for the committed slots above the frontier,
// naming the offset the receiver wants should they be compacted away.
func (n *Node) catchup(to types.NodeID) {
	n.send(Message{Kind: MsgCatchup, To: to, Slot: n.commitSeq + 1, Offset: uint32(n.recv.Offset())})
}

// Journal maps the acceptor onto its journal (replog.Persister): the
// hard state is the promised ballot (num, owner), each accepted slot an
// entry tagged with its accepted ballot packed into one u64, and the
// snapshot file holds the compacted prefix's snapshot/v1 blob, of kind
// 'M'. A slot accepted under a ballot packBallot cannot pack fails the
// Sync. Learned values and the commit frontier above the snapshot
// re-converge after a restore as a lagging replica's do, and membership
// epochs are derived again from the chosen slots.
func (n *Node) Journal() replog.Mapping {
	return replog.Mapping{
		Kind:  'M',
		Hard:  wal.Hard{n.ballot.Num, uint64(n.ballot.Owner)},
		Fresh: n.ballot.IsZero() && n.commitSeq == 0 && n.log.End() == 0,
		Entries: func(from uint64, add func(i, tag uint64, val []byte)) (err error) {
			n.log.Each(types.Seq(from)-1, func(s types.Seq, sl *slot) {
				if tag, ok := packBallot(sl.num); sl.accepted && err == nil && ok {
					add(uint64(s), tag, sl.val)
				} else if sl.accepted && err == nil {
					err = fmt.Errorf("multipaxos: slot %d's ballot %v does not fit a journal tag", s, sl.num)
				}
			})
			return err
		},
		Install: n.installSnapshot,
		Entry: func(i, tag uint64, val []byte) error {
			sl := n.log.Grow(types.Seq(i))
			if sl == nil {
				return fmt.Errorf("multipaxos: journaled slot %d is too far past %d", i, n.SnapshotIndex())
			}
			sl.num, sl.val, sl.accepted = unpackBallot(tag), val, true
			return nil
		},
		Truncate: func(keep uint64) { n.log.TruncateFrom(types.Seq(keep) + 1) },
		SetHard:  func(h wal.Hard) { n.ballot = types.Ballot{Num: h[0], Owner: types.NodeID(h[1])} },
		Rearm:    n.resetElectionTimer,
	}
}

// packBallot packs b into an entry's tag: num in the high 48 bits, owner
// in the low 16. A ballot that does not fit reports false.
func packBallot(b types.Ballot) (uint64, bool) {
	return b.Num<<16 | uint64(b.Owner), b.Num < 1<<48 && b.Owner >= 0 && b.Owner < 1<<16
}

func unpackBallot(tag uint64) types.Ballot {
	return types.Ballot{Num: tag >> 16, Owner: types.NodeID(tag & 0xFFFF)}
}
