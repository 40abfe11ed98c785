package smr

import (
	"fmt"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Module is the part of a consensus module a Replica consumes: its
// stream of committed decisions.
type Module interface {
	TakeDecisions() []types.Decision
}

// Compactor is the optional module surface for log compaction and
// snapshot catch-up; raft.Node and multipaxos.Node provide it.
type Compactor interface {
	Compact(upTo types.Seq, state []byte) bool
	TakeInstalledSnapshot() *snapshot.Snapshot
	// SnapshotIndex is the highest compacted slot, 0 for a dense log.
	SnapshotIndex() types.Seq
}

// Reader is the optional module surface for reads that never enter the
// log; raft.Node and multipaxos.Node provide it. ReadIndex asks the
// module, as leader, to confirm read id; TakeReads reports each such read
// once, confirmed at the commit frontier it must be served at or above,
// or dropped because the module stopped leading first.
type Reader interface {
	ReadIndex(id uint64)
	TakeReads() []types.ReadState
}

// Replica is how one replica's committed decisions reach its state
// machine: the module's decision stream, an Executor applying it, and —
// when the module can compact — the snapshot policy between the two;
// when the module is a Reader, it also serves reads beside the log.
// The simulated cluster (runner.SMRCluster) and the live runtime
// (live.Server) are its two drivers; each calls Pump after the module
// has taken a step. A Replica is as single-threaded as the module it
// reads.
type Replica struct {
	mod    Module
	comp   Compactor // nil: the module cannot compact
	reader Reader    // nil: the module cannot serve reads
	exec   *Executor // nil: no state machine, decisions only

	lastCompact types.Seq // frontier of the last compaction or install
	snapBytes   int       // size of the snapshot taken or installed there
	installs    int
	err         error // a failed snapshot restore; the replica is dead
	replies     []types.Reply

	// Reads handed to the module by number, and the confirmed ones that
	// wait for the apply frontier to reach their index.
	reads  map[uint64]read
	readID uint64
	held   []read
}

// read is one client read from Read to its answer.
type read struct {
	types.Reply
	op    types.Value
	index types.Seq
}

// NewReplica hosts mod's decision stream for node, applying it to sm.
// A nil sm leaves the replica without an executor: Pump only hands the
// decisions back and installed snapshots stay with the module.
func NewReplica(node types.NodeID, mod Module, sm StateMachine) *Replica {
	r := &Replica{mod: mod}
	if sm == nil {
		return r
	}
	r.exec = NewExecutor(node, sm)
	r.comp, _ = mod.(Compactor)
	r.reader, _ = mod.(Reader)
	r.reads = make(map[uint64]read)
	return r
}

// Read runs op, a command that changes nothing, for the client session
// (client, seqno) without a log entry: the module, which must be a
// Reader, confirms that it still leads, and a Pump answers the read
// through StateMachine.Query once the state machine has applied through
// the index the confirmation names — or reports it dropped.
func (r *Replica) Read(client types.ClientID, seqno uint64, op types.Value) {
	r.readID++
	r.reads[r.readID] = read{Reply: types.Reply{Client: client, SeqNo: seqno, Node: r.exec.node}, op: op}
	r.reader.ReadIndex(r.readID)
}

// Pump moves what the module committed since the last call into the
// state machine: a snapshot the module installed from a peer is
// restored first, so no decision past it meets the old state, then each
// drained decision is committed in order, then every read whose index
// the apply frontier has reached is run. It returns the decisions, the
// client replies they and the reads produced, and the reads the module
// dropped (no Result); replies is only valid until the next Pump.
//
// A snapshot that does not restore leaves a replica whose module has
// moved past slots its state machine never saw. That replica cannot
// apply anything again: the Pump that hit it and every later one return
// the error, with the drained decisions and no replies.
func (r *Replica) Pump() (decided []types.Decision, replies, dropped []types.Reply, err error) {
	if r.comp != nil && r.err == nil {
		if snap := r.comp.TakeInstalledSnapshot(); snap != nil {
			if rerr := r.exec.RestoreState(snap.State); rerr != nil {
				r.err = fmt.Errorf("smr: restore snapshot at slot %d: %w", snap.LastIndex, rerr)
			} else {
				r.installs++
				r.lastCompact, r.snapBytes = snap.LastIndex, len(snap.State)
			}
		}
	}
	decided = r.mod.TakeDecisions()
	if r.exec == nil || r.err != nil {
		return decided, nil, nil, r.err
	}
	r.replies = r.replies[:0]
	for _, d := range decided {
		r.replies = append(r.replies, r.exec.Commit(d)...)
	}
	if r.reader != nil {
		dropped = r.serveReads()
	}
	return decided, r.replies, dropped, nil
}

// serveReads takes the module's read outcomes and answers, into
// r.replies, every confirmed read the apply frontier has reached.
func (r *Replica) serveReads() (dropped []types.Reply) {
	for _, st := range r.reader.TakeReads() {
		rd, ok := r.reads[st.ID]
		delete(r.reads, st.ID)
		if ok && st.Dropped {
			dropped = append(dropped, rd.Reply)
		} else if ok {
			rd.index = st.Index
			r.held = append(r.held, rd)
		}
	}
	applied, keep := r.exec.NextSlot()-1, r.held[:0]
	for _, rd := range r.held {
		if rd.index > applied {
			keep = append(keep, rd)
		} else {
			rd.Result = r.exec.sm.Query(rd.op)
			r.replies = append(r.replies, rd.Reply)
		}
	}
	clear(r.held[len(keep):])
	r.held = keep
	return dropped
}

// Compact folds everything applied so far into a snapshot and hands it
// to the module, which drops the log prefix the snapshot covers. It
// reports whether the module took it: a module may refuse (a pending
// reconfiguration epoch, nothing new applied), and one that cannot
// compact always does.
func (r *Replica) Compact() bool {
	if r.comp == nil || r.err != nil {
		return false
	}
	upTo, state := r.exec.NextSlot()-1, r.exec.SnapshotState()
	if !r.comp.Compact(upTo, state) {
		return false
	}
	r.lastCompact, r.snapBytes = upTo, len(state)
	return true
}

// CompactEvery is the compaction cadence: it compacts once the apply
// frontier has outrun the last compaction (or installed snapshot) by
// every slots. A refused compaction is retried by the next call.
// every <= 0 never compacts.
func (r *Replica) CompactEvery(every int) {
	if r.comp == nil || every <= 0 {
		return
	}
	if r.exec.NextSlot()-1 >= r.lastCompact+types.Seq(every) {
		r.Compact()
	}
}

// Exec returns the replica's executor, nil without a state machine.
func (r *Replica) Exec() *Executor { return r.exec }

// SnapshotIndex is the highest slot the module has compacted away: 0
// for a dense log, or a module that cannot compact.
func (r *Replica) SnapshotIndex() types.Seq {
	if r.comp == nil {
		return 0
	}
	return r.comp.SnapshotIndex()
}

// Installs counts the snapshots restored from peers.
func (r *Replica) Installs() int { return r.installs }

// SnapshotBytes is the size of the last snapshot this replica took or
// installed: executor sessions plus state machine, 0 before the first.
func (r *Replica) SnapshotBytes() int { return r.snapBytes }
