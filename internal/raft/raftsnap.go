package raft

import (
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// Single-server membership changes, and Raft's journal mapping.
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

// setMembers makes ms the config, and the peers the core replicates to.
func (n *Node) setMembers(ms []types.NodeID) {
	n.members = ms
	n.q = quorum.Majority{N: len(ms)}
	n.SetPeers(ms)
}

// confAllowed vets a membership change at the leader: well-formed, not
// a no-op, never empties the cluster, and at most one change in flight
// (the single-server rule is only safe one change at a time).
func (n *Node) confAllowed(v types.Value) bool {
	cc, err := snapshot.DecodeConfChange(v)
	if err != nil {
		return false
	}
	if len(n.confLog) > 0 && n.confLog[len(n.confLog)-1].index > n.CommitFrontier() {
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

// Appended consumes a config entry appended at index: the new member set
// takes effect immediately.
func (n *Node) Appended(index types.Seq, v types.Value) {
	if !snapshot.IsConfChange(v) {
		return
	}
	cc, err := snapshot.DecodeConfChange(v)
	if err != nil {
		return
	}
	n.confLog = append(n.confLog, confRecord{index: index, prev: n.members})
	n.setMembers(cc.Apply(n.members))
	if cc.Op == snapshot.ConfRemove && cc.Node == n.id {
		n.selfRemovedAt = index
	}
}

// Truncated reverts the config entries at index idx and above.
func (n *Node) Truncated(idx types.Seq) {
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
}

// Adopt takes an installed snapshot's member set; no config entry
// below it can be truncated any more.
func (n *Node) Adopt(ms []types.NodeID) {
	n.confLog = nil
	n.selfRemovedAt = 0
	n.setMembers(ms)
}

// Compacting returns the member set as of upTo, and forgets the config
// records at or below it, which can never be truncated (that region is
// committed).
func (n *Node) Compacting(upTo types.Seq) ([]types.NodeID, bool) {
	ms := n.members
	for i := len(n.confLog) - 1; i >= 0; i-- {
		if n.confLog[i].index <= upTo {
			break
		}
		ms = n.confLog[i].prev
	}
	keep := n.confLog[:0]
	for _, rec := range n.confLog {
		if rec.index > upTo {
			keep = append(keep, rec)
		}
	}
	n.confLog = keep
	return append([]types.NodeID(nil), ms...), true
}

// Journal maps the node onto its journal (replog.Persister): the hard
// state is (term, vote+1), an entry's tag its term, and the snapshot
// file holds a snapshot/v1 blob of kind 'R'.
func (n *Node) Journal() replog.Mapping {
	return n.Mapping('R', wal.Hard{uint64(n.term), uint64(n.votedFor) + 1}, // -1 → 0
		func(h wal.Hard) { n.term, n.votedFor = Term(h[0]), types.NodeID(h[1])-1 },
		n.resetElectionTimer)
}
