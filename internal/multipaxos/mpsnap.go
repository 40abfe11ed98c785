package multipaxos

import (
	"slices"

	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// Alpha-delayed reconfiguration, and Multi-Paxos' journal mapping.
//
// Membership follows the slot-scheduled rule from SMR reconfiguration
// literature: a config change chosen at slot i takes effect for slots
// >= i+Alpha. Every replica schedules the epoch during the same
// deterministic frontier advance, so no replica ever sizes a quorum for
// slot s with a different member set than its peers. The epochs are the
// core's member sets: Quorum hands it each slot's, and the leader
// replicates to every member of an epoch that still governs an
// undecided slot.

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
	members, _, _ := n.Quorum(slot)
	return members
}

// Quorum returns the epoch governing slot i, its Q2, and the last slot
// it governs.
func (n *Node) Quorum(i types.Seq) ([]types.NodeID, int, types.Seq) {
	through := replog.Forever
	for k := len(n.configs) - 1; k > 0; k-- {
		if n.configs[k].from <= i {
			_, q2 := n.quorums(n.configs[k].members)
			return n.configs[k].members, q2, through
		}
		through = n.configs[k].from - 1
	}
	_, q2 := n.quorums(n.configs[0].members)
	return n.configs[0].members, q2, through
}

// latestFrom is the first slot the newest epoch governs.
func (n *Node) latestFrom() types.Seq { return n.configs[len(n.configs)-1].from }

// latestMembers returns the newest epoch's member set, active or not.
func (n *Node) latestMembers() []types.NodeID {
	return n.configs[len(n.configs)-1].members
}

// quorumsFor returns how many votes end phase 1 and how many end phase
// 2 for slot.
func (n *Node) quorumsFor(slot types.Seq) (q1, q2 int) { return n.quorums(n.membersFor(slot)) }

// quorums returns phase 1's and phase 2's quorum over members: the
// configured Flexible pair, else a majority of members for both.
func (n *Node) quorums(members []types.NodeID) (q1, q2 int) {
	if n.cfg.flexible() {
		return n.cfg.Quorums.Q1, n.cfg.Quorums.Q2
	}
	m := quorum.Majority{N: len(members)}.Threshold()
	return m, m
}

// setPeers makes every member of every epoch the core's peers.
func (n *Node) setPeers() {
	var all []types.NodeID
	for _, e := range n.configs {
		all = append(all, e.members...)
	}
	slices.Sort(all)
	if all = slices.Compact(all); !slices.Equal(all, n.Peers()) {
		n.SetPeers(all)
	}
}

func (n *Node) isMember(id types.NodeID) bool {
	return slices.Contains(n.latestMembers(), id)
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
	if n.latestFrom() > n.CommitFrontier() {
		return false // an epoch is still waiting to activate
	}
	for s := n.CommitFrontier() + 1; s <= n.LastIndex(); s++ {
		if snapshot.IsConfChange(n.At(s).Val) {
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

// Compacting returns the member set governing upTo+1, which a snapshot
// through upTo summarizes the epochs by. A later epoch survives only as
// its conf entry in the suffix, so compaction is refused when it would
// delete such an entry (upTo at or past a choose slot whose epoch
// activates above upTo+1).
func (n *Node) Compacting(upTo types.Seq) ([]types.NodeID, bool) {
	for _, e := range n.configs {
		if e.from > upTo+1 && e.from-Alpha <= upTo {
			return nil, false
		}
	}
	return append([]types.NodeID(nil), n.membersFor(upTo+1)...), true
}

// Adopt takes an installed snapshot's member set as the only epoch.
func (n *Node) Adopt(ms []types.NodeID) {
	n.configs = []cfgEpoch{{from: 0, members: ms}}
	n.setPeers()
}

// Journal maps the acceptor onto its journal (replog.Persister): the
// hard state is the promised ballot (num, owner), each accepted slot an
// entry tagged with its packed ballot, and the snapshot file holds the
// compacted prefix's snapshot/v1 blob, of kind 'M'. The commit frontier
// above the snapshot re-converges after a restore as a lagging
// replica's does, and membership epochs are derived again from the
// chosen slots. Rearm restarts the voting rule's clock with the
// election timer, as raft's does: an acceptor restored with a promise
// may have answered a lease round just before it went down.
func (n *Node) Journal() replog.Mapping {
	return n.Mapping('M', wal.Hard{n.ballot.Num, uint64(n.ballot.Owner)},
		func(h wal.Hard) { n.ballot = types.Ballot{Num: h[0], Owner: types.NodeID(h[1])} },
		func() { n.quiet = 0; n.resetElectionTimer() })
}

// packBallot packs b into an entry's tag: num in the high 48 bits, owner
// in the low 16, so that tags order as ballots do. A ballot that does
// not fit reports false.
func packBallot(b types.Ballot) (uint64, bool) {
	return b.Num<<16 | uint64(b.Owner), b.Num < 1<<48 && b.Owner >= 0 && b.Owner < 1<<16
}

func unpackBallot(tag uint64) types.Ballot {
	return types.Ballot{Num: tag >> 16, Owner: types.NodeID(tag & 0xFFFF)}
}
