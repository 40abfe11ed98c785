package raft

import (
	"slices"

	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Log compaction, InstallSnapshot transfer, and single-server membership
// changes.
//
// Compaction folds the applied prefix of the log into an encoded
// snapshot.Snapshot; the in-memory log keeps a sentinel at snapIndex
// carrying snapTerm, so the AppendEntries consistency check still works
// at the boundary. A follower whose next index falls at or below
// snapIndex cannot be caught up by entries — the leader streams the
// snapshot in offset-resumable chunks instead (MsgSnap/MsgSnapResp, into
// the snapshot.Receiver Multi-Paxos' state transfer uses too) and
// resumes replication above it once the follower reports the install.
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

// SnapshotIndex returns the index of the last compacted entry (0 when
// the log is dense from index 1).
func (n *Node) SnapshotIndex() types.Seq { return n.snapIndex }

// TakeInstalledSnapshot drains the most recently installed snapshot, if
// any, so the host can restore its executor and state machine before
// consuming further decisions.
func (n *Node) TakeInstalledSnapshot() *snapshot.Snapshot {
	s := n.installed
	n.installed = nil
	return s
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
	n.log = n.log[:idx-n.snapIndex]
	n.touch(idx)
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
// snapshot transfer (holdCompact). A leader first sends each replicating
// follower what it lacks below upTo: a tick's lag is not worth a snapshot.
func (n *Node) Compact(upTo types.Seq, state []byte) bool {
	if upTo <= n.snapIndex || upTo > n.applied || n.CompactHeld() {
		return false
	}
	for _, p := range n.members {
		if pr := n.prs[p]; pr != nil && pr.state == stateReplicate && pr.next <= upTo {
			n.sendNext(p, pr)
		}
	}
	term := n.at(upTo).Term
	tail := make([]LogEntry, n.lastIndex()-upTo+1)
	tail[0] = LogEntry{Term: term}
	copy(tail[1:], n.log[upTo-n.snapIndex+1:])
	snap := snapshot.Snapshot{
		LastIndex: upTo, LastTerm: uint64(term),
		Members: n.membersAt(upTo), State: state,
	}
	n.log = tail
	n.snapIndex, n.snapTerm = upTo, term
	n.snapData = snapshot.Encode(snap)
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

// CompactHeld reports whether Compact refuses for now: a snapshot
// transfer this node serves is under way (holdCompact).
func (n *Node) CompactHeld() bool { return n.holdCompact > 0 }

// sendSnapChunk sends p the chunk of the current snapshot at off; ask
// asks for an answer even if p already holds it.
func (n *Node) sendSnapChunk(p types.NodeID, off int, ask bool) {
	if n.snapData == nil {
		return
	}
	chunk, done := snapshot.ChunkAt(n.snapData, off)
	n.send(Message{
		Kind: MsgSnap, To: p,
		PrevIndex: n.snapIndex, PrevTerm: n.snapTerm,
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
		n.installSnapshot(*snap, raw)
		n.send(Message{Kind: MsgSnapResp, To: m.From, Success: true, Done: true, MatchIndex: n.snapIndex})
	} else if ask || m.Success {
		n.send(Message{Kind: MsgSnapResp, To: m.From, Success: true,
			PrevIndex: m.PrevIndex, Offset: uint32(n.recv.Offset())})
	}
}

// installSnapshot replaces the node's log prefix and membership with the
// snapshot's, keeping raw, its encoding, which the caller hands over.
// The caller guarantees snap.LastIndex > commitIndex.
func (n *Node) installSnapshot(snap snapshot.Snapshot, raw []byte) {
	n.snapIndex = snap.LastIndex
	n.snapTerm = Term(snap.LastTerm)
	n.snapData = raw
	n.log = []LogEntry{{Term: n.snapTerm}}
	n.commitIndex, n.applied = n.snapIndex, n.snapIndex
	// Undrained decisions below the snapshot are subsumed by the
	// installed state the host restores from.
	n.decisions = nil
	ms := append([]types.NodeID(nil), snap.Members...)
	slices.Sort(ms)
	n.confLog = nil
	n.selfRemovedAt = 0
	n.setMembers(ms)
	cp := snap
	n.installed = &cp
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
	n.holdCompact = n.cfg.ElectionTimeoutTicks
	n.sendSnapChunk(m.From, pr.snapOff, false)
}
