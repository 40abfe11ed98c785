package replog

import (
	"fmt"
	"slices"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// Log compaction and InstallSnapshot transfer.
//
// Compaction folds the applied prefix of the log into an encoded
// snapshot.Snapshot and drops the log's pages below it; the node keeps
// a sentinel at SnapshotIndex carrying snapTerm, so the append
// consistency check still works at the boundary. A follower whose next
// index falls at or below SnapshotIndex cannot be caught up by entries
// — the leader streams the snapshot in offset-resumable chunks instead
// (Snap/SnapResp, into a snapshot.Receiver) and resumes replication
// above it once the follower reports the install.

// Compact folds every entry at or below upTo into a snapshot whose
// application payload is state (the host's executor+state-machine
// bytes). upTo must be applied already; compacting at or past the apply
// frontier would discard entries the host never saw. Reports whether
// anything was compacted: it refuses while a follower is taking a
// snapshot transfer (CompactHeld), and where the elector refuses. A
// leader first sends each replicating follower what it lacks below upTo:
// a tick's lag is not worth a snapshot. The entries above upTo stay
// where they are: whole pages below it go.
//
// An acceptor's snapshot has LastTerm 0: a replica's ballot for an entry
// is no fact about the entry's value, so every replica that compacts
// upTo with the same state writes the same bytes.
func (c *Core[M]) Compact(upTo types.Seq, state []byte) bool {
	if upTo <= c.snapIndex || upTo > c.applied || c.CompactHeld() {
		return false
	}
	members, ok := c.el.Compacting(upTo)
	if !ok {
		return false
	}
	for _, p := range c.peers {
		if pr := c.prs[p]; pr != nil && pr.state == stateReplicate && pr.next <= upTo {
			c.sendNext(p, pr)
		}
	}
	c.snapTerm = c.At(upTo).Term
	snap := snapshot.Snapshot{LastIndex: upTo, LastTerm: c.snapTerm, Members: members, State: state}
	if c.keep {
		snap.LastTerm = 0
	}
	c.snapIndex, c.snapData = upTo, snapshot.Encode(snap)
	c.log.DropThrough(upTo)
	return true
}

// TickHold counts one tick off the compaction hold.
func (c *Core[M]) TickHold() { c.hold = max(c.hold-1, 0) }

// sendSnapChunk sends p the chunk of the current snapshot at off; ask
// asks for an answer even if p already holds it.
func (c *Core[M]) sendSnapChunk(p types.NodeID, off int, ask bool) {
	if c.Snapshot() == nil {
		return
	}
	chunk, done := snapshot.ChunkAt(c.Snapshot(), off)
	c.send(Msg{
		Kind: Snap, To: p,
		PrevIndex: c.snapIndex, PrevTerm: c.snapTerm,
		Commit: c.commit, Success: ask,
		Val: types.Value(chunk), Offset: uint32(off), Done: done,
	})
}

// onSnap handles one snapshot chunk at a follower: the receiver takes
// it, and the follower answers with the offset it wants next, unless the
// chunk was one it already held and no answer was asked for.
func (c *Core[M]) onSnap(m Msg) {
	if m.Term < c.el.Term() {
		c.send(Msg{Kind: SnapResp, To: m.From, Success: false, PrevIndex: m.PrevIndex})
		return
	}
	c.el.Heard(m.From)
	if m.PrevIndex <= c.commit {
		// We already hold everything the snapshot covers; report our
		// frontier so the leader resumes entry replication above it.
		c.send(Msg{Kind: SnapResp, To: m.From, Success: true, Done: true, Match: c.commit})
		return
	}
	raw, snap, ask := c.recv.Take(m.PrevIndex, int(m.Offset), m.Val, m.Done)
	if snap != nil {
		c.install(snap, raw)
		c.send(Msg{Kind: SnapResp, To: m.From, Success: true, Done: true, Match: c.snapIndex})
	} else if ask || m.Success {
		c.send(Msg{Kind: SnapResp, To: m.From, Success: true,
			PrevIndex: m.PrevIndex, Offset: uint32(c.recv.Offset())})
	}
}

// install replaces the node's log prefix and membership with the
// snapshot's, keeping raw, its encoding, which the caller hands over,
// and surfaces it to the host; undrained decisions below it are
// subsumed by the state it carries. The caller guarantees
// snap.LastIndex > commit. The log starts over at the snapshot; an
// acceptor's store keeps what it accepted past it.
func (c *Core[M]) install(snap *snapshot.Snapshot, raw []byte) {
	c.snapIndex, c.snapData, c.installed, c.Decisions = snap.LastIndex, raw, snap, types.Decisions{}
	c.snapTerm = snap.LastTerm
	if !c.keep || c.tail <= snap.LastIndex {
		c.log = Log[Entry]{}
		c.tail = snap.LastIndex
	}
	c.log.DropThrough(snap.LastIndex)
	c.last = snap.LastIndex
	c.commit, c.applied = snap.LastIndex, snap.LastIndex
	ms := append([]types.NodeID(nil), snap.Members...)
	slices.Sort(ms)
	c.el.Adopt(ms)
}

// onSnapResp handles a follower's transfer ack at the leader.
func (c *Core[M]) onSnapResp(m Msg) {
	if !c.Leading() || m.Term != c.el.Term() {
		return
	}
	pr := c.prs[m.From]
	if pr == nil {
		return // not, or no longer, a peer
	}
	if m.Done {
		// Install (or already-covered) report: the follower's log is the
		// snapshot through Match; resume entry replication above it.
		if pr.state == stateSnapshot {
			pr.state = stateReplicate
		}
		c.onMatched(m.From, pr, m.Match)
		return
	}
	if pr.state != stateSnapshot {
		return // ack of a transfer that has ended
	}
	// The follower named the offset it wants next. An offset into a
	// superseded snapshot costs one chunk: the follower's receiver starts
	// over and asks for 0. While it answers, compact nothing, which
	// would start the transfer over. An answer naming the chunk already
	// outstanding is a second answer to one chunk (a heartbeat's resend
	// crossed the first): that chunk is on its way.
	c.hold = c.timers.ElectionTimeoutTicks
	if int(m.Offset) == pr.snapOff {
		return
	}
	pr.snapOff = int(m.Offset)
	c.sendSnapChunk(m.From, pr.snapOff, false)
}

// Mapping maps the core onto its journal (Persister): an entry's tag is
// its term, an acceptor's store is journaled whole, the snapshot file
// holds a snapshot/v1 blob of kind, and the backend adds its hard state,
// how to set it, and its election timer.
func (c *Core[M]) Mapping(kind uint8, hard wal.Hard, setHard func(wal.Hard), rearm func()) Mapping {
	return Mapping{
		Kind:  kind,
		Hard:  hard,
		Fresh: c.last == 0 && hard == (wal.Hard{}),
		Entries: func(from uint64, add func(i, tag uint64, val []byte)) error {
			for i := types.Seq(from); i <= c.tail; i++ {
				e := c.log.Get(i)
				add(uint64(i), e.Term, e.Val)
			}
			return nil
		},
		Install: c.install,
		Entry: func(i, tag uint64, val []byte) error {
			if types.Seq(i) != c.last+1 {
				return fmt.Errorf("replog: append gap: %d after %d", i, c.last)
			}
			c.appendEntry(Entry{Term: tag, Val: val})
			return nil
		},
		Truncate: func(keep uint64) { c.truncateFrom(types.Seq(keep) + 1) },
		SetHard: func(h wal.Hard) {
			if c.keep {
				// Replayed entries hold no proof they were ever one log:
				// an acceptor's log restarts at its snapshot, and what it
				// journaled past it is its store's, for Prepares.
				c.last = c.snapIndex
			}
			setHard(h)
		},
		Rearm: rearm,
	}
}
