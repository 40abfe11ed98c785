package replog

import (
	"fortyconsensus/internal/readindex"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Core is the replication half of a node of message type M: the log,
// the commit index, the leader's follower progress, the snapshot
// transfer both ways, the reads, and what the host and the journal read
// (outbox, decision stream, snapshot, compaction hold, dirty mark).
// raft.Node and multipaxos.Node embed it and differ only in the Elector
// they hand Init.
type Core[M any] struct {
	types.Outbox[M]
	types.Decisions
	synced
	installed *snapshot.Snapshot // the last one installed, until TakeInstalledSnapshot
	hold      int                // ticks Compact still refuses: a transfer this node serves would start over

	el     Elector[M]
	id     types.NodeID
	timers ElectorConfig
	// keep makes the log an acceptor's (Paxos): what a leader's append
	// cuts off past a conflict leaves the log but not the store — it
	// stays there, through tail, for a Prepare to find, until an append
	// writes over it — and a decided prefix matches any leader's.
	keep bool

	// The log holds entries (SnapshotIndex, last]; at SnapshotIndex sits
	// a sentinel whose term is snapTerm, the last compacted entry's. An
	// acceptor's store holds what was cut off past last through tail.
	log      Log[Entry]
	last     types.Seq
	tail     types.Seq
	snapTerm uint64
	commit   types.Seq
	applied  types.Seq

	peers []types.NodeID    // whom a leader replicates to, sorted; the node itself may be among them
	recv  snapshot.Receiver // an incoming snapshot transfer (follower side)

	// Leader state: replication progress per peer (never for the leader
	// itself, whose match is its last index). nil unless leading.
	prs  map[types.NodeID]*progress
	hbIn int

	matchScratch []types.Seq    // maybeCommit scratch, reused across checks
	picks        []types.NodeID // Propose's scratch: whom a new entry goes to
	sending      Msg            // send's scratch: the message Wire converts

	reads     readindex.Tracker // read.go
	readFloor types.Seq         // the leader's first entry of its term: no read confirms before it commits
}

// Entry is one log entry: the term (Raft) or the packed ballot (Paxos)
// of the leader that wrote it, and its value.
type Entry struct {
	Term uint64
	Val  types.Value
}

// Elector is what the core asks of the rule that elects its leader.
type Elector[M any] interface {
	// Term is the node's term, or its promised ballot packed: what every
	// message it sends carries.
	Term() uint64
	// Wire is m as the backend's message; m is lent for the call.
	Wire(m *Msg) M
	// Quorum returns the members whose acks decide index i (sorted), how
	// many of them decide it, and the last index they govern.
	Quorum(i types.Seq) (members []types.NodeID, q2 int, through types.Seq)
	// Heard is a message of the node's term from its leader lead.
	Heard(lead types.NodeID)
	// Appended is entry i, just appended with value v.
	Appended(i types.Seq, v types.Value)
	// Truncated is every entry from i on, just dropped.
	Truncated(i types.Seq)
	// Committed is entry i, just decided with value v.
	Committed(i types.Seq, v types.Value)
	// Adopt takes an installed snapshot's member set, sorted.
	Adopt(members []types.NodeID)
	// Compacting vets compaction through upTo and returns the member set
	// its snapshot carries.
	Compacting(upTo types.Seq) (members []types.NodeID, ok bool)
}

// ElectorConfig is the elector's clocks, the one config both backends'
// Config embeds.
type ElectorConfig struct {
	// HeartbeatTicks is the leader's heartbeat interval. Default 5.
	HeartbeatTicks int
	// ElectionTimeoutTicks is the base follower timeout; each reset adds
	// seeded jitter in [0, ElectionTimeoutTicks). A node that has seen no
	// term or ballot arms only a jitter in [1, HeartbeatTicks]. Default 30.
	ElectionTimeoutTicks int
}

// DefaultElector returns t with its zero fields filled.
func DefaultElector(t ElectorConfig) ElectorConfig {
	if t.HeartbeatTicks <= 0 {
		t.HeartbeatTicks = 5
	}
	if t.ElectionTimeoutTicks <= 0 {
		t.ElectionTimeoutTicks = 30
	}
	return t
}

// Init binds the core to node id's elector; keep makes the log an
// acceptor's (see Core.keep).
func (c *Core[M]) Init(id types.NodeID, el Elector[M], t ElectorConfig, peers []types.NodeID, keep bool) {
	c.id, c.el, c.timers, c.peers, c.keep = id, el, t, peers, keep
	c.reads.Lease = leaseTicks(t.ElectionTimeoutTicks)
}

// synced is the part of a Core a Persister reads.
type synced struct {
	unsynced  types.Seq // lowest index changed since the last Sync; 0 = none
	snapIndex types.Seq // everything at or below it lives only in snapData
	snapData  []byte
}

// journal hands a Persister what it reads; only a type that embeds a
// Core has it, so only such a node is Durable.
func (s *synced) journal() *synced { return s }

// touch records that the entry at index i changed, for Persister.Sync.
func (s *synced) touch(i types.Seq) {
	if s.unsynced == 0 || i < s.unsynced {
		s.unsynced = i
	}
}

// SnapshotIndex returns the highest compacted index (0 = dense log).
func (s *synced) SnapshotIndex() types.Seq { return s.snapIndex }

// Snapshot returns the encoded snapshot, or nil before the first.
func (s *synced) Snapshot() []byte { return s.snapData }

// TakeInstalledSnapshot drains the most recently installed snapshot, if
// any, so the host can restore its executor and state machine before
// consuming further decisions.
func (c *Core[M]) TakeInstalledSnapshot() *snapshot.Snapshot {
	s := c.installed
	c.installed = nil
	return s
}

// CompactHeld reports whether Compact refuses for now: a snapshot
// transfer this node serves is under way.
func (c *Core[M]) CompactHeld() bool { return c.hold > 0 }

// CommitFrontier returns the commit index.
func (c *Core[M]) CommitFrontier() types.Seq { return c.commit }

// LastIndex returns the index of the log's last entry.
func (c *Core[M]) LastIndex() types.Seq { return c.last }

// At returns the entry at index i, which lies in [SnapshotIndex,
// LastIndex]; at SnapshotIndex it is the sentinel carrying snapTerm.
func (c *Core[M]) At(i types.Seq) Entry {
	if i == c.snapIndex {
		return Entry{Term: c.snapTerm}
	}
	return *c.log.Get(i)
}

// Peers returns whom a leader replicates to.
func (c *Core[M]) Peers() []types.NodeID { return c.peers }

// Leading reports whether the core holds a leader's progress.
func (c *Core[M]) Leading() bool { return c.prs != nil }

// eachQuorum calls f with the members and Q2 governing the first
// undecided index and those of every set scheduled past it.
func (c *Core[M]) eachQuorum(f func(members []types.NodeID, q2 int)) {
	for i := c.commit + 1; ; {
		ms, q2, through := c.el.Quorum(i)
		f(ms, q2)
		if through == Forever {
			return
		}
		i = through + 1
	}
}

// Forever is the through of a member set that governs every index on.
const Forever = ^types.Seq(0)
