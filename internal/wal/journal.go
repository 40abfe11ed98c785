package wal

import (
	"fmt"

	"fortyconsensus/internal/wire"
)

// Journal is the durable state of a log-replication node, in the one
// format raft and Multi-Paxos share: a two-word hard state, entries
// keyed by index that each carry a u64 tag and a value, and
// truncations, over a Log whose snapshot file replaces the journal
// whole. replog.Persister writes and reads it, and a backend supplies
// only its own state's mapping onto it (raft.Node.Journal,
// multipaxos.Node.Journal). The journal keeps a shadow of what is
// durable, so a Sync writes what changed since the last one and
// nothing else.
//
// Each record is the payload of one Log record:
//
//	type 1, hard state: u64 · u64
//	type 2, entry:      u64 index · u64 tag · value, the rest
//	type 3, truncate:   u64 keep (every entry above keep is gone)
//
// A journal that had no snapshot file says nothing of the backend that
// wrote it: a data directory holds one backend's journal.
type Journal struct {
	log  *Log
	kind uint8  // the snapshot file's kind tag
	buf  []byte // one Sync's framed records, reused

	// Shadow of what is durable; synced once a Sync or Restore set it.
	hard   Hard
	base   uint64 // the index the snapshot file covers
	length uint64 // the last entry journaled, or the truncation or snapshot after it
	synced bool
}

// Hard is a node's two-word hard state.
type Hard [2]uint64

// Journal record types.
const (
	recHard uint8 = iota + 1
	recEntry
	recTruncate
)

// NewJournal journals through l, tagging its snapshot file kind.
func NewJournal(l *Log, kind uint8) *Journal { return &Journal{log: l, kind: kind} }

// State is a node's durable state as its mapping hands it to Sync.
type State struct {
	Hard Hard
	// Changed is the lowest index whose entry changed since the last
	// Sync, or 0 for none.
	Changed uint64
	// SnapIndex is the index the node's snapshot covers, and Snapshot
	// the snapshot's encoding.
	SnapIndex uint64
	Snapshot  []byte
}

// Entries calls add, in ascending index order, for every entry the node
// holds at index from or above. An error ends the Sync with nothing
// written.
type Entries func(from uint64, add func(i, tag uint64, val []byte)) error

// Sync journals what changed since the last Sync in one Log call, so one
// fsync: the hard state if it moved, then entries from the lowest index
// changed, after a truncate record when that index is at or below what
// is durable. Once the snapshot index has moved, the call is a Snapshot
// whose new journal is the hard state and every entry above it. A
// journal that has not synced yet takes every entry as changed.
func (j *Journal) Sync(s State, entries Entries) error {
	from, length := s.Changed, j.length
	if !j.synced {
		from = 1
	}
	snapshotting := s.SnapIndex > j.base
	if snapshotting {
		from, length = 0, s.SnapIndex
	}
	buf := j.buf[:0]
	if snapshotting || s.Hard != j.hard {
		buf = appendRecord(buf, recHard, nil, s.Hard[0], s.Hard[1])
	}
	if from > 0 && from <= length {
		buf = appendRecord(buf, recTruncate, nil, from-1)
		length = from - 1
	}
	var err error
	if snapshotting || from > 0 {
		err = entries(max(from, length+1), func(i, tag uint64, val []byte) {
			buf = appendRecord(buf, recEntry, val, i, tag)
			length = i
		})
	}
	j.buf = buf
	if err != nil {
		return err
	}
	if snapshotting {
		err = j.log.snapshot(j.kind, s.Snapshot, buf)
	} else {
		err = j.log.append(buf)
	}
	if err != nil {
		return err
	}
	j.hard, j.base, j.length, j.synced = s.Hard, s.SnapIndex, length, true
	return nil
}

// Replay is how a mapping takes its node back from the journal.
type Replay struct {
	// Snapshot installs the snapshot file's payload and returns the
	// index it covers.
	Snapshot func(payload []byte) (index uint64, err error)
	Hard     func(h Hard)
	// Entry installs index i, which is above every entry installed since
	// the last Truncate.
	Entry func(i, tag uint64, val []byte) error
	// Truncate drops every entry above keep.
	Truncate func(keep uint64)
}

// Restore replays the snapshot file, then the journal, into a node
// through r's callbacks. A snapshot file of another kind is refused.
func (j *Journal) Restore(r Replay) error {
	kind, raw, err := j.log.LoadSnapshot()
	if err != nil {
		return err
	}
	var base uint64
	if raw != nil {
		if kind != j.kind {
			return fmt.Errorf("wal: snapshot kind %#x, want %#x", kind, j.kind)
		}
		if base, err = r.Snapshot(raw); err != nil {
			return err
		}
	}
	// The snapshot fixes the log through base. A record that reaches
	// below it comes from the journal a crash left beside a newer
	// snapshot: entries there are skipped, truncations stop at base.
	hard, length := Hard{}, base
	err = j.log.Replay(func(rec Record) error {
		p := wire.NewReader(rec.Payload)
		switch rec.Type {
		case recHard:
			h := Hard{p.U64(), p.U64()}
			if !p.Done() {
				return fmt.Errorf("wal: bad hard-state record")
			}
			hard = h
			r.Hard(h)
		case recEntry:
			i, tag := p.U64(), p.U64()
			val := p.Copy(p.Len())
			if p.Err() != nil {
				return fmt.Errorf("wal: bad entry record")
			}
			if i <= base {
				return nil
			}
			if i <= length {
				return fmt.Errorf("wal: entry %d journaled after %d", i, length)
			}
			if err := r.Entry(i, tag, val); err != nil {
				return err
			}
			length = i
		case recTruncate:
			keep := p.U64()
			if !p.Done() {
				return fmt.Errorf("wal: bad truncate record")
			}
			if keep > length {
				return fmt.Errorf("wal: truncate beyond log: %d > %d", keep, length)
			}
			length = max(keep, base)
			r.Truncate(length)
		default:
			return fmt.Errorf("wal: unknown record type %d", rec.Type)
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.hard, j.base, j.length, j.synced = hard, base, length, true
	return nil
}
