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
// it after each Step/Tick batch (Sync), diffing against a shadow copy of
// the hard state and appending only what changed. Once the node compacts
// its log, the persister writes the encoded snapshot to the WAL's
// snapshot file (pruning every journal segment) and re-journals the
// hard state plus the surviving suffix — recovery is then
// snapshot-then-suffix: install the snapshot, replay the journal on top.
// Replay applies records in order: term/vote updates, log truncations,
// entry appends; all indices are global (snapshot-offset aware).
type Persister struct {
	log *wal.Log

	// Shadow of what is known durable.
	term     Term
	votedFor types.NodeID
	base     types.Seq // snapshot index covered by the WAL snapshot file
	length   types.Seq // entries persisted (global log indices base+1..length)
	terms    []Term    // per-index terms of persisted entries (index base+1 first)
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
	if n.snapIndex > p.base {
		// The node compacted (or installed a snapshot) past our base.
		// Writing the snapshot file prunes the whole journal, so the
		// shadow resets and the hard state plus suffix re-journal below.
		if err := p.log.SnapshotTyped(snapKindRaft, n.snapData); err != nil {
			return err
		}
		p.base = n.snapIndex
		p.length = n.snapIndex
		p.terms = p.terms[:0]
		p.term, p.votedFor = 0, -1 // force a hard-state re-append
	}
	if n.term != p.term || n.votedFor != p.votedFor {
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[:8], uint64(n.term))
		binary.BigEndian.PutUint64(buf[8:], uint64(n.votedFor)+1) // -1 → 0
		if err := p.log.Append(wal.Record{Type: recHardState, Payload: buf[:]}); err != nil {
			return err
		}
		p.term, p.votedFor = n.term, n.votedFor
	}
	// Detect truncation: a persisted index whose term changed.
	last := n.lastIndex()
	diverged := types.Seq(0)
	for i := p.base + 1; i <= p.length && i <= last; i++ {
		if p.terms[i-p.base-1] != n.at(i).Term {
			diverged = i
			break
		}
	}
	if diverged == 0 && last < p.length {
		diverged = last + 1
	}
	if diverged > 0 {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(diverged-1))
		if err := p.log.Append(wal.Record{Type: recTruncate, Payload: buf[:]}); err != nil {
			return err
		}
		p.length = diverged - 1
		p.terms = p.terms[:p.length-p.base]
	}
	// Append new entries.
	for i := p.length + 1; i <= last; i++ {
		e := n.at(i)
		payload := make([]byte, 16+len(e.Val))
		binary.BigEndian.PutUint64(payload[:8], uint64(i))
		binary.BigEndian.PutUint64(payload[8:16], uint64(e.Term))
		copy(payload[16:], e.Val)
		if err := p.log.Append(wal.Record{Type: recAppend, Payload: payload}); err != nil {
			return err
		}
		p.length = i
		p.terms = append(p.terms, e.Term)
	}
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
	snapKind, rawSnap, err := p.log.LoadSnapshotTyped()
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
			if keep < n.snapIndex {
				return fmt.Errorf("raft: truncate below snapshot: %d < %d", keep, n.snapIndex)
			}
			n.truncateFrom(keep + 1)
		default:
			return fmt.Errorf("raft: unknown record type %d", rec.Type)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Sync the shadow to the restored state.
	p.term, p.votedFor = n.term, n.votedFor
	p.base = n.snapIndex
	p.length = n.lastIndex()
	p.terms = p.terms[:0]
	for i := p.base + 1; i <= n.lastIndex(); i++ {
		p.terms = append(p.terms, n.at(i).Term)
	}
	return nil
}
