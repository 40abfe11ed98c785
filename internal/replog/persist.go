package replog

import (
	"fmt"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/wal"
)

// Persister journals a replication node's durable state through a
// wal.Journal, and rebuilds a fresh node from it after a crash: what a
// node must not forget, or a restarted one could break a vote, a promise
// or a chosen value. The node stays a pure state machine: the Persister
// observes it after each Step/Tick batch (Sync); until the host syncs
// before a turn's messages leave, the tests sync once a tick.
type Persister struct {
	l *wal.Log
	j *wal.Journal // made with the first node's snapshot kind
}

// Mapping is a node as its journal holds it, the only durability code a
// backend writes: the snapshot file's kind, the hard state's two words,
// the entries with their tags, and the hooks that take them back into a
// fresh node (wal.Replay's). All indices are global.
type Mapping struct {
	Kind     uint8
	Hard     wal.Hard
	Fresh    bool // as New built it: Restore refuses any other node
	Entries  wal.Entries
	Install  func(snap *snapshot.Snapshot, raw []byte)
	Entry    func(i, tag uint64, val []byte) error
	Truncate func(keep uint64)
	SetHard  func(h wal.Hard) // the hard state the journal ended with, set last
	Rearm    func()           // the election timer, once a restored node has heard a leader
}

// Durable is a node a Persister journals: one that embeds a Core, whose
// unsynced mark and snapshot the Persister reads, and maps the rest.
type Durable interface {
	journal() *synced
	Journal() Mapping
}

// NewPersister journals through an open WAL.
func NewPersister(l *wal.Log) *Persister { return &Persister{l: l} }

// Sync journals what changed in n since the last call, in one write and
// one fsync. An entry the mapping cannot tag fails the Sync, which then
// writes nothing.
func (p *Persister) Sync(n Durable) error {
	s, m := n.journal(), n.Journal()
	if p.j == nil {
		p.j = wal.NewJournal(p.l, m.Kind)
	}
	err := p.j.Sync(wal.State{Hard: m.Hard, Changed: uint64(s.unsynced), SnapIndex: uint64(s.snapIndex), Snapshot: s.snapData}, m.Entries)
	if err == nil {
		s.unsynced = 0
	}
	return err
}

// Restore rebuilds a fresh node from the snapshot file (if any) plus the
// journal. Volatile state — role, commit index, leader — re-converges
// through the protocol; the snapshot is surfaced via
// TakeInstalledSnapshot for the host to restore.
func (p *Persister) Restore(n Durable) error {
	s, m := n.journal(), n.Journal()
	if !m.Fresh {
		return fmt.Errorf("replog: Restore requires a fresh node")
	}
	if p.j == nil {
		p.j = wal.NewJournal(p.l, m.Kind)
	}
	var hard wal.Hard
	err := p.j.Restore(wal.Replay{
		Snapshot: func(raw []byte) (uint64, error) {
			snap, err := snapshot.Decode(raw)
			if err == nil {
				m.Install(&snap, raw)
			}
			return uint64(snap.LastIndex), err
		},
		Hard:     func(h wal.Hard) { hard = h },
		Entry:    m.Entry,
		Truncate: m.Truncate,
	})
	if err != nil {
		return err
	}
	s.unsynced = 0
	m.SetHard(hard)
	if hard != (wal.Hard{}) {
		// New armed the fresh node's short timer; a node that has seen a
		// term or promised a ballot heard a leader, and waits the full
		// base, so it cannot unseat a live one.
		m.Rearm()
	}
	return nil
}
