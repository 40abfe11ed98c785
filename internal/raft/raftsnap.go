package raft

import (
	"fmt"
	"slices"

	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// Log compaction, InstallSnapshot transfer, and single-server membership
// changes.
//
// Compaction folds the applied prefix of the log into an encoded
// snapshot.Snapshot and drops the log's pages below it; the node keeps
// a sentinel at SnapshotIndex carrying snapTerm, so the AppendEntries
// consistency check still works at the boundary. A follower whose next
// index falls at or below SnapshotIndex cannot be caught up by entries
// — the leader streams the snapshot in offset-resumable chunks instead
// (MsgSnap/MsgSnapResp, into the snapshot.Receiver Multi-Paxos' state
// transfer uses too) and resumes replication above it once the
// follower reports the install.
//
// Membership uses the single-server change rule from Ongaro's
// dissertation (§4.1): one add or remove at a time, and a node uses the
// configuration from the *latest* entry in its log, committed or not —
// i.e. a config entry takes effect when appended. Because consecutive
// configs under single-server changes always share a majority, this is
// safe without joint consensus; the price is that an uncommitted config
// entry can be truncated away on leader change, so every node remembers
// the member set in force before each uncommitted config entry and
// reverts on conflict truncation.

// confRecord remembers the member set in force before the config entry
// at index, so a conflict truncation of that entry can revert it.
type confRecord struct {
	index types.Seq
	prev  []types.NodeID
}

func (n *Node) isMember(id types.NodeID) bool {
	for _, p := range n.members {
		if p == id {
			return true
		}
	}
	return false
}

// Members returns the node's current member set (latest config in its
// log, committed or not).
func (n *Node) Members() []types.NodeID {
	return append([]types.NodeID(nil), n.members...)
}

func (n *Node) setMembers(ms []types.NodeID) {
	old := n.members
	n.members = ms
	n.q = quorum.Majority{N: len(ms)}
	if n.role != leader {
		return
	}
	// Keep the progress of members that stay, and probe a new member with
	// the entry admitting it.
	prs := make(map[types.NodeID]*progress, len(ms))
	for _, p := range ms {
		if p == n.id {
			continue
		}
		pr := n.prs[p]
		if pr == nil {
			pr = &progress{next: n.lastIndex()}
			n.sendNext(p, pr)
		}
		prs[p] = pr
	}
	// A member that left is sent what it has not been sent one last time,
	// which ends with the entry removing it: a node that never learns it
	// was voted out keeps campaigning against the members that remain.
	// Then it is forgotten (a node re-admitted under the same ID must not
	// inherit a match it may no longer hold).
	for _, p := range old {
		if pr := n.prs[p]; pr != nil && prs[p] == nil {
			n.sendNext(p, pr)
		}
	}
	n.prs = prs
}

// confAllowed vets a membership change at the leader: well-formed, not
// a no-op, never empties the cluster, and at most one change in flight
// (the single-server rule is only safe one change at a time).
func (n *Node) confAllowed(v types.Value) bool {
	cc, err := snapshot.DecodeConfChange(v)
	if err != nil {
		return false
	}
	if len(n.confLog) > 0 && n.confLog[len(n.confLog)-1].index > n.commitIndex {
		return false
	}
	switch cc.Op {
	case snapshot.ConfAdd:
		return !n.isMember(cc.Node)
	case snapshot.ConfRemove:
		return n.isMember(cc.Node) && len(n.members) > 1
	}
	return false
}

// applyConf consumes a config entry appended at index: the new member
// set takes effect immediately.
func (n *Node) applyConf(cc snapshot.ConfChange, index types.Seq) {
	n.confLog = append(n.confLog, confRecord{index: index, prev: n.members})
	n.setMembers(cc.Apply(n.members))
	if cc.Op == snapshot.ConfRemove && cc.Node == n.id {
		n.selfRemovedAt = index
	}
}

// truncateFrom drops log entries at global index idx and above,
// reverting any config entries among them.
func (n *Node) truncateFrom(idx types.Seq) {
	for len(n.confLog) > 0 {
		rec := n.confLog[len(n.confLog)-1]
		if rec.index < idx {
			break
		}
		n.setMembers(rec.prev)
		n.confLog = n.confLog[:len(n.confLog)-1]
	}
	if n.selfRemovedAt >= idx {
		n.selfRemovedAt = 0
	}
	n.log.TruncateFrom(idx)
	n.last = idx - 1
	n.Touch(idx)
}

// membersAt reconstructs the member set as of global index idx by
// unwinding config records above it.
func (n *Node) membersAt(idx types.Seq) []types.NodeID {
	ms := n.members
	for i := len(n.confLog) - 1; i >= 0; i-- {
		if n.confLog[i].index <= idx {
			break
		}
		ms = n.confLog[i].prev
	}
	return append([]types.NodeID(nil), ms...)
}

// Compact folds every entry at or below upTo into a snapshot whose
// application payload is state (the host's executor+state-machine
// bytes). upTo must be applied already; compacting at or past the apply
// frontier would discard entries the host never saw. Reports whether
// anything was compacted: it refuses while a follower is taking a
// snapshot transfer (CompactHeld). A leader first sends each replicating
// follower what it lacks below upTo: a tick's lag is not worth a snapshot.
// The entries above upTo stay where they are: whole pages below it go.
func (n *Node) Compact(upTo types.Seq, state []byte) bool {
	if upTo <= n.SnapshotIndex() || upTo > n.applied || n.CompactHeld() {
		return false
	}
	for _, p := range n.members {
		if pr := n.prs[p]; pr != nil && pr.state == stateReplicate && pr.next <= upTo {
			n.sendNext(p, pr)
		}
	}
	n.snapTerm = n.at(upTo).Term
	n.Compacted(snapshot.Snapshot{
		LastIndex: upTo, LastTerm: uint64(n.snapTerm),
		Members: n.membersAt(upTo), State: state,
	})
	n.log.DropThrough(upTo)
	// Config records at or below the compaction point can never be
	// truncated (that region is committed) — drop them.
	keep := n.confLog[:0]
	for _, rec := range n.confLog {
		if rec.index > upTo {
			keep = append(keep, rec)
		}
	}
	n.confLog = keep
	return true
}

// sendSnapChunk sends p the chunk of the current snapshot at off; ask
// asks for an answer even if p already holds it.
func (n *Node) sendSnapChunk(p types.NodeID, off int, ask bool) {
	if n.Snapshot() == nil {
		return
	}
	chunk, done := snapshot.ChunkAt(n.Snapshot(), off)
	n.send(Message{
		Kind: MsgSnap, To: p,
		PrevIndex: n.SnapshotIndex(), PrevTerm: n.snapTerm,
		LeaderCommit: n.commitIndex, Success: ask,
		Val: types.Value(chunk), Offset: uint32(off), Done: done,
	})
}

// onSnap handles one InstallSnapshot chunk at a follower: the receiver
// takes it, and the follower answers with the offset it wants next,
// unless the chunk was one it already held and no answer was asked for.
func (n *Node) onSnap(m Message) {
	if m.Term < n.term {
		n.send(Message{Kind: MsgSnapResp, To: m.From, Success: false, PrevIndex: m.PrevIndex})
		return
	}
	n.becomeFollower(m.Term, m.From)
	if m.PrevIndex <= n.commitIndex {
		// We already hold everything the snapshot covers; report our
		// frontier so the leader resumes entry replication above it.
		n.send(Message{Kind: MsgSnapResp, To: m.From, Success: true, Done: true, MatchIndex: n.commitIndex})
		return
	}
	raw, snap, ask := n.recv.Take(m.PrevIndex, int(m.Offset), m.Val, m.Done)
	if snap != nil {
		n.installSnapshot(snap, raw)
		n.send(Message{Kind: MsgSnapResp, To: m.From, Success: true, Done: true, MatchIndex: n.SnapshotIndex()})
	} else if ask || m.Success {
		n.send(Message{Kind: MsgSnapResp, To: m.From, Success: true,
			PrevIndex: m.PrevIndex, Offset: uint32(n.recv.Offset())})
	}
}

// installSnapshot replaces the node's log and membership with the
// snapshot's, keeping raw, its encoding, which the caller hands over.
// The caller guarantees snap.LastIndex > commitIndex.
func (n *Node) installSnapshot(snap *snapshot.Snapshot, raw []byte) {
	n.Installed(snap, raw)
	n.snapTerm = Term(snap.LastTerm)
	n.log = replog.Log[LogEntry]{}
	n.log.DropThrough(snap.LastIndex)
	n.last, n.commitIndex, n.applied = snap.LastIndex, snap.LastIndex, snap.LastIndex
	ms := append([]types.NodeID(nil), snap.Members...)
	slices.Sort(ms)
	n.confLog = nil
	n.selfRemovedAt = 0
	n.setMembers(ms)
}

// onSnapResp handles a follower's transfer ack at the leader.
func (n *Node) onSnapResp(m Message) {
	if n.role != leader || m.Term != n.term {
		return
	}
	pr := n.prs[m.From]
	if pr == nil {
		return // not, or no longer, in the config
	}
	if m.Done {
		// Install (or already-covered) report: the follower's log is the
		// snapshot through MatchIndex; resume entry replication above it.
		if pr.state == stateSnapshot {
			pr.state = stateReplicate
		}
		n.onMatched(m.From, pr, m.MatchIndex)
		return
	}
	if pr.state != stateSnapshot {
		return // ack of a transfer that has ended
	}
	// The follower named the offset it wants next. An offset into a
	// superseded snapshot costs one chunk: the follower's receiver starts
	// over and asks for 0. While it answers, compact nothing, which
	// would start the transfer over.
	pr.snapOff = int(m.Offset)
	n.HoldCompact(n.cfg.ElectionTimeoutTicks)
	n.sendSnapChunk(m.From, pr.snapOff, false)
}

// Journal maps the node onto its journal (replog.Persister): the hard
// state is (term, vote+1), an entry's tag its term, and the snapshot
// file holds a snapshot/v1 blob of kind 'R'.
func (n *Node) Journal() replog.Mapping {
	return replog.Mapping{
		Kind:  'R',
		Hard:  wal.Hard{uint64(n.term), uint64(n.votedFor) + 1}, // -1 → 0
		Fresh: n.lastIndex() == 0 && n.term == 0,
		Entries: func(from uint64, add func(i, tag uint64, val []byte)) error {
			for i := types.Seq(from); i <= n.lastIndex(); i++ {
				e := n.log.Get(i)
				add(uint64(i), uint64(e.Term), e.Val)
			}
			return nil
		},
		Install: n.installSnapshot,
		Entry: func(i, tag uint64, val []byte) error {
			if types.Seq(i) != n.lastIndex()+1 {
				return fmt.Errorf("raft: append gap: %d after %d", i, n.lastIndex())
			}
			n.appendEntry(LogEntry{Term: Term(tag), Val: val})
			return nil
		},
		Truncate: func(keep uint64) { n.truncateFrom(types.Seq(keep) + 1) },
		SetHard:  func(h wal.Hard) { n.term, n.votedFor = Term(h[0]), types.NodeID(h[1])-1 },
		Rearm:    n.resetElectionTimer,
	}
}
