package multipaxos

import (
	"fmt"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// Persister journals a Multi-Paxos acceptor's durable state — its
// promised ballot and the (ballot, value) it accepted per slot — through
// a wal.Journal, and rebuilds a node from it after a crash: the state an
// acceptor must not forget, or a restarted one could break a promise or
// a chosen value.
//
// The mapping onto the journal: the hard state is the promised ballot
// (num, owner), each accepted slot one entry tagged with its accepted
// ballot packed into one u64 (packBallot), the lowest slot changed the
// node's unsynced, and the snapshot file holds the compacted prefix's
// snapshot/v1 blob, of kind 'M'. As raft.Persister, it observes the
// node after each Step/Tick batch (Sync).
type Persister struct {
	j *wal.Journal
}

// snapKindMultiPaxos tags the WAL snapshot file as a Multi-Paxos node's
// compacted prefix.
const snapKindMultiPaxos uint8 = 'M'

// maxRestored bounds how far past the log's origin Restore takes a
// journaled slot. An acceptor that learned a long stretch from Commits
// holds accepted slots further apart than maxAhead, so the journal is
// not held to it; but a slot number must not size memory without
// bound: 2^30 slots is 32 MiB of page pointers.
const maxRestored = 1 << 30

// NewPersister wraps an open WAL.
func NewPersister(l *wal.Log) *Persister {
	return &Persister{j: wal.NewJournal(l, snapKindMultiPaxos)}
}

// packBallot packs b into an entry's tag: num in the high 48 bits, owner
// in the low 16. A ballot that does not fit reports false.
func packBallot(b types.Ballot) (uint64, bool) {
	return b.Num<<16 | uint64(b.Owner), b.Num < 1<<48 && b.Owner >= 0 && b.Owner < 1<<16
}

func unpackBallot(tag uint64) types.Ballot {
	return types.Ballot{Num: tag >> 16, Owner: types.NodeID(tag & 0xFFFF)}
}

// Sync journals the promised ballot and every slot accepted since the
// last call, as raft.Persister.Sync does a raft node's state. A slot
// accepted under a ballot packBallot cannot pack fails the Sync, which
// then writes nothing.
func (p *Persister) Sync(n *Node) error {
	err := p.j.Sync(wal.State{
		Hard:      wal.Hard{n.ballot.Num, uint64(n.ballot.Owner)},
		Changed:   uint64(n.unsynced),
		SnapIndex: uint64(n.compactSeq),
		Snapshot:  n.snapData,
	}, func(from uint64, add func(i, tag uint64, val []byte)) error {
		for s := types.Seq(from); s < n.log.end(); s++ {
			sl := n.log.get(s)
			if sl == nil || !sl.accepted {
				continue
			}
			tag, ok := packBallot(sl.num)
			if !ok {
				return fmt.Errorf("multipaxos: slot %d's ballot %v does not fit a journal tag", s, sl.num)
			}
			add(uint64(s), tag, sl.val)
		}
		return nil
	})
	if err == nil {
		n.unsynced = 0
	}
	return err
}

// Restore rebuilds a fresh node's acceptor state — the compacted prefix,
// the promised ballot and the accepted slots — from the snapshot file
// (if any) plus the journal. Learned values and the commit frontier
// above the snapshot re-converge as a lagging replica's do, and
// membership epochs are derived again from the chosen slots; the
// snapshot is handed to the host through TakeInstalledSnapshot.
func (p *Persister) Restore(n *Node) error {
	if !n.ballot.IsZero() || n.commitSeq != 0 || len(n.log.pages) != 0 {
		return fmt.Errorf("multipaxos: Restore requires a fresh node")
	}
	err := p.j.Restore(wal.Replay{
		Snapshot: func(raw []byte) (uint64, error) {
			snap, err := snapshot.Decode(raw)
			if err != nil {
				return 0, err
			}
			n.installSnapshot(&snap, raw)
			return uint64(snap.LastIndex), nil
		},
		Hard: func(h wal.Hard) { n.ballot = types.Ballot{Num: h[0], Owner: types.NodeID(h[1])} },
		Entry: func(i, tag uint64, val []byte) error {
			s := types.Seq(i)
			if s-n.log.origin >= maxRestored {
				return fmt.Errorf("multipaxos: journaled slot %d is too far past %d", s, n.log.origin)
			}
			sl := n.log.grow(s)
			sl.num, sl.val, sl.accepted = unpackBallot(tag), val, true
			return nil
		},
		Truncate: func(keep uint64) {
			for _, e := range n.log.acceptedAbove(types.Seq(keep)) {
				*n.log.get(e.Slot) = slot{}
			}
		},
	})
	if err != nil {
		return err
	}
	n.unsynced = 0
	if !n.ballot.IsZero() {
		// As raft's: a node that has promised a ballot heard a leader, and
		// waits the full base.
		n.resetElectionTimer()
	}
	return nil
}
