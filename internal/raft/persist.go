package raft

import (
	"encoding/binary"
	"fmt"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
	"fortyconsensus/internal/wire"
)

// Persister journals a Raft node's hard state — current term, vote, and
// log — through a write-ahead log, and rebuilds a node from it after a
// crash. Raft's safety argument assumes exactly this state survives
// restarts; the in-memory simulation models crash-stop, and Persister
// closes the loop to crash-recovery.
//
// The protocol node stays a pure state machine: the persister *observes*
// it after each Step/Tick batch (Sync), diffing term and vote against a
// shadow copy and journaling the log from the lowest index the node has
// changed since the last Sync. A Sync is one wal call, so one fsync: an
// Append of the hard state, a truncation and the new entries, or, once
// the node has compacted, a Snapshot whose new journal is the hard state
// and the surviving suffix. Recovery installs the snapshot, then replays
// the journal on top; all indices are global (snapshot-offset aware).
type Persister struct {
	log *wal.Log

	// Shadow of what is known durable.
	term     Term
	votedFor types.NodeID
	base     types.Seq // snapshot index covered by the WAL snapshot file
	length   types.Seq // entries persisted (global log indices base+1..length)
}

// WAL record types.
const (
	recHardState uint8 = iota + 1 // term + votedFor
	recAppend                     // index + term + value
	recTruncate                   // new length
)

// snapKindRaft tags the WAL snapshot file as holding an encoded
// snapshot.Snapshot (raft snapshot/v1), so recovery refuses payloads
// written by a different subsystem.
const snapKindRaft uint8 = 'R'

// NewPersister wraps an open WAL.
func NewPersister(l *wal.Log) *Persister {
	return &Persister{log: l, votedFor: -1}
}

// Sync journals any hard-state changes the node accumulated since the
// last call. Call it after every cluster step (or batch of steps); Raft
// requires persistence before messages act on the state, and the
// simulation's runner drains outboxes after Step — call Sync before
// delivering, or accept the simulation-level simplification of syncing
// per tick (what the tests do).
func (p *Persister) Sync(n *Node) error {
	from, length := n.unsynced, p.length
	snapshotting := n.snapIndex > p.base
	if snapshotting {
		// The node compacted (or installed a snapshot) past our base. The
		// snapshot replaces the whole journal, so the new one carries the
		// hard state and every entry above the snapshot.
		from, length = 0, n.snapIndex
	}
	var recs []wal.Record
	if snapshotting || n.term != p.term || n.votedFor != p.votedFor {
		hs := binary.BigEndian.AppendUint64(make([]byte, 0, 16), uint64(n.term))
		hs = binary.BigEndian.AppendUint64(hs, uint64(n.votedFor)+1) // -1 → 0
		recs = append(recs, wal.Record{Type: recHardState, Payload: hs})
	}
	// A change at or below what is durable truncates the journal's log
	// back to just before it; the entries from there on are appended anew.
	if from > 0 && from <= length {
		recs = append(recs, wal.Record{Type: recTruncate, Payload: binary.BigEndian.AppendUint64(nil, uint64(from-1))})
		length = from - 1
	}
	for i := length + 1; i <= n.lastIndex(); i++ {
		e := n.at(i)
		payload := make([]byte, 16+len(e.Val))
		binary.BigEndian.PutUint64(payload[:8], uint64(i))
		binary.BigEndian.PutUint64(payload[8:16], uint64(e.Term))
		copy(payload[16:], e.Val)
		recs = append(recs, wal.Record{Type: recAppend, Payload: payload})
	}
	var err error
	if snapshotting {
		err = p.log.Snapshot(snapKindRaft, n.snapData, recs...)
	} else {
		err = p.log.Append(recs...)
	}
	if err != nil {
		return err
	}
	p.term, p.votedFor = n.term, n.votedFor
	p.base, p.length = n.snapIndex, n.lastIndex()
	n.unsynced = 0
	return nil
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
	snapKind, rawSnap, err := p.log.LoadSnapshot()
	if err != nil {
		return err
	}
	if rawSnap != nil {
		if snapKind != snapKindRaft {
			return fmt.Errorf("raft: WAL snapshot kind %#x is not a raft snapshot", snapKind)
		}
		snap, err := snapshot.Decode(rawSnap)
		if err != nil {
			return err
		}
		n.installSnapshot(snap, rawSnap)
	}
	// The snapshot fixes the log through snapIndex. A journal record that
	// reaches below it comes from the journal a crash left beside a newer
	// snapshot: appends there are skipped, truncations stop above it.
	err = p.log.Replay(func(rec wal.Record) error {
		r := wire.NewReader(rec.Payload)
		switch rec.Type {
		case recHardState:
			term, vote := Term(r.U64()), types.NodeID(r.U64())-1
			if !r.Done() {
				return fmt.Errorf("raft: bad hard-state record")
			}
			n.term, n.votedFor = term, vote
		case recAppend:
			idx, term := types.Seq(r.U64()), Term(r.U64())
			val := types.Value(r.Copy(r.Len()))
			if r.Err() != nil {
				return fmt.Errorf("raft: bad append record")
			}
			if idx <= n.snapIndex {
				return nil
			}
			if idx != n.lastIndex()+1 {
				return fmt.Errorf("raft: append gap: %d after %d", idx, n.lastIndex())
			}
			n.appendEntry(LogEntry{Term: term, Val: val})
		case recTruncate:
			keep := types.Seq(r.U64())
			if !r.Done() {
				return fmt.Errorf("raft: bad truncate record")
			}
			if keep > n.lastIndex() {
				return fmt.Errorf("raft: truncate beyond log: %d > %d", keep, n.lastIndex())
			}
			n.truncateFrom(max(keep, n.snapIndex) + 1)
		default:
			return fmt.Errorf("raft: unknown record type %d", rec.Type)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.term, p.votedFor = n.term, n.votedFor
	p.base, p.length = n.snapIndex, n.lastIndex()
	n.unsynced = 0
	if n.term > 0 {
		// New armed the fresh node's short timer; a node that has seen a
		// term waits the full base, so it cannot unseat a live leader.
		n.resetElectionTimer()
	}
	return nil
}
