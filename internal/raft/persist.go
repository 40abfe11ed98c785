package raft

import (
	"fmt"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// Persister journals a Raft node's hard state — current term, vote, and
// log — through a wal.Journal, and rebuilds a node from it after a
// crash. Raft's safety argument assumes exactly this state survives
// restarts; the in-memory simulation models crash-stop, and Persister
// closes the loop to crash-recovery.
//
// The protocol node stays a pure state machine: the persister *observes*
// it after each Step/Tick batch (Sync). Raft's mapping onto the journal:
// the hard state is (term, vote+1), an entry's tag is its term, the
// lowest index changed is the node's unsynced, and the snapshot file
// holds a snapshot/v1 blob of kind 'R'. All indices are global
// (snapshot-offset aware).
type Persister struct {
	j *wal.Journal
}

// snapKindRaft tags the WAL snapshot file as holding an encoded
// snapshot.Snapshot (raft snapshot/v1), so recovery refuses payloads
// written by a different subsystem.
const snapKindRaft uint8 = 'R'

// NewPersister wraps an open WAL.
func NewPersister(l *wal.Log) *Persister {
	return &Persister{j: wal.NewJournal(l, snapKindRaft)}
}

// Sync journals any hard-state changes the node accumulated since the
// last call. Call it after every cluster step (or batch of steps); Raft
// requires persistence before messages act on the state, and the
// simulation's runner drains outboxes after Step — call Sync before
// delivering, or accept the simulation-level simplification of syncing
// per tick (what the tests do).
func (p *Persister) Sync(n *Node) error {
	err := p.j.Sync(wal.State{
		Hard:      wal.Hard{uint64(n.term), uint64(n.votedFor) + 1}, // -1 → 0
		Changed:   uint64(n.unsynced),
		SnapIndex: uint64(n.snapIndex),
		Snapshot:  n.snapData,
	}, func(from uint64, add func(i, tag uint64, val []byte)) error {
		for i := types.Seq(from); i <= n.lastIndex(); i++ {
			e := n.at(i)
			add(uint64(i), uint64(e.Term), e.Val)
		}
		return nil
	})
	if err == nil {
		n.unsynced = 0
	}
	return err
}

// Restore rebuilds a node's hard state from the snapshot file (if any)
// plus the journal. The node must be freshly constructed (empty log,
// term 0). Volatile state — role, commit index, leader — re-converges
// through the protocol, exactly as Raft specifies; application state is
// surfaced via TakeInstalledSnapshot for the host to restore.
func (p *Persister) Restore(n *Node) error {
	if n.lastIndex() != 0 || n.term != 0 {
		return fmt.Errorf("raft: Restore requires a fresh node")
	}
	err := p.j.Restore(wal.Replay{
		Snapshot: func(raw []byte) (uint64, error) {
			snap, err := snapshot.Decode(raw)
			if err != nil {
				return 0, err
			}
			n.installSnapshot(snap, raw)
			return uint64(snap.LastIndex), nil
		},
		Hard: func(h wal.Hard) { n.term, n.votedFor = Term(h[0]), types.NodeID(h[1])-1 },
		Entry: func(i, tag uint64, val []byte) error {
			if types.Seq(i) != n.lastIndex()+1 {
				return fmt.Errorf("raft: append gap: %d after %d", i, n.lastIndex())
			}
			n.appendEntry(LogEntry{Term: Term(tag), Val: val})
			return nil
		},
		Truncate: func(keep uint64) { n.truncateFrom(types.Seq(keep) + 1) },
	})
	if err != nil {
		return err
	}
	n.unsynced = 0
	if n.term > 0 {
		// New armed the fresh node's short timer; a node that has seen a
		// term waits the full base, so it cannot unseat a live leader.
		n.resetElectionTimer()
	}
	return nil
}
