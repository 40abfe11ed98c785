// Package smr is the state-machine-replication shell shared by every
// protocol: it encodes client requests into consensus values, applies
// committed slots to the application state machine in order, and
// deduplicates client retries so a command executes exactly once even
// when the client or the protocol retransmits — the "replicated log"
// slides of the paper.
//
// Replica moves one module's decisions into its state machine. It has
// two drivers: runner.SMRCluster pumps every simulated replica after a
// step, and Sessions, the one client-session table, pumps the replica
// of a host that takes client requests — live.Server's groups over TCP
// and shard's simulated groups alike.
package smr

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// StateMachine is the replicated application. kvstore.Store and
// shard.Store implement it. Snapshot must serialize the complete state
// deterministically (two replicas that applied the same command prefix
// produce identical bytes); Restore replaces the state from a snapshot
// and rejects malformed input with an error. Query runs a read-only
// command that never entered the log (Replica.Read) and must change
// nothing — not even what Snapshot writes, or replicas that served
// different reads would stop agreeing byte for byte.
type StateMachine interface {
	Apply(cmd types.Value) types.Value
	Query(cmd types.Value) types.Value
	Snapshot() []byte
	Restore(snap []byte) error
}

// EncodeRequest packs a client request into a consensus value:
// u64 client | u64 seqno | op bytes.
func EncodeRequest(r types.Request) types.Value {
	return appendRequest(make([]byte, 0, 16+len(r.Op)), r)
}

func appendRequest(buf []byte, r types.Request) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Client))
	buf = binary.BigEndian.AppendUint64(buf, r.SeqNo)
	return append(buf, r.Op...)
}

// ErrDecode reports a malformed encoded request.
var ErrDecode = errors.New("smr: malformed request encoding")

// DecodeRequest unpacks a consensus value into a client request. Op is
// a copy: the request outlives v.
func DecodeRequest(v types.Value) (types.Request, error) {
	req, ok := viewRequest(v)
	if !ok {
		return types.Request{}, ErrDecode
	}
	req.Op = append(types.Value(nil), req.Op...) // nil when empty
	return req, nil
}

// viewRequest is DecodeRequest with Op aliasing v, for the executor: a
// decided value is never written again, so nothing need be copied.
func viewRequest(v []byte) (types.Request, bool) {
	r := wire.NewReader(v)
	req := types.Request{Client: types.ClientID(r.U64()), SeqNo: r.U64()}
	req.Op = r.View(r.Len())
	return req, r.Err() == nil
}

// batchMagic opens a batch value. Its first byte has the high bit set,
// as the conf-change magic's does: a request value starts with its
// client ID, and a live server refuses every negative one, so no client
// request is ever read as either.
var batchMagic = [8]byte{0xB4, 0x7C, 'B', 'A', 'T', 'C', 'H', 0x01}

// EncodeBatch packs one or more client requests into one consensus
// value that the Executor applies as those requests, in order. A lone
// request is its EncodeRequest value; two or more are a batch:
// magic(8) | u32 n ≥ 2 | n × (u32 len | EncodeRequest value).
func EncodeBatch(reqs []types.Request) types.Value {
	if len(reqs) == 1 {
		return EncodeRequest(reqs[0])
	}
	size := len(batchMagic) + 4
	for _, r := range reqs {
		size += 4 + 16 + len(r.Op)
	}
	buf := append(make([]byte, 0, size), batchMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(reqs)))
	for _, r := range reqs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(16+len(r.Op)))
		buf = appendRequest(buf, r)
	}
	return types.Value(buf)
}

// isBatch reports whether v carries the batch prefix.
func isBatch(v types.Value) bool {
	return len(v) >= len(batchMagic) && [len(batchMagic)]byte(v) == batchMagic
}

// DecodeBatch appends the requests of batch value v to reqs; every Op
// aliases v. A batch that is truncated, whose count disagrees with its
// body or is under two, or that holds a value too short to be a request
// is ErrDecode, and then nothing is appended.
func DecodeBatch(v types.Value, reqs []types.Request) ([]types.Request, error) {
	if !isBatch(v) {
		return reqs, ErrDecode
	}
	r := wire.NewReader(v[len(batchMagic):])
	n, base := r.Count(4+16), len(reqs)
	for i := 0; i < n; i++ {
		req, ok := viewRequest(r.View32())
		if !ok {
			return reqs[:base], ErrDecode
		}
		reqs = append(reqs, req)
	}
	if !r.Done() || n < 2 {
		return reqs[:base], ErrDecode
	}
	return reqs, nil
}

// Executor applies committed decisions to a state machine in slot order,
// holding out-of-order commits until their predecessors arrive, and
// deduplicates per-client sequence numbers.
type Executor struct {
	node    types.NodeID
	sm      StateMachine
	next    types.Seq
	pending map[types.Seq]types.Value
	// lastSeq and lastReply implement client-session dedup, one entry per
	// session: a request whose seqno is the last executed one returns the
	// cached reply without re-executing, an older one returns nothing. A
	// session is assumed to have one request outstanding at a time and
	// seqnos that only rise (live.Client's session window; one session per
	// request in the simulated shard service).
	lastSeq   map[types.ClientID]uint64
	lastReply map[types.ClientID]types.Value
	// The apply history behind Applied and CheckPrefixConsistency, kept
	// only once KeepHistory has asked for it: it grows with every slot.
	keepHistory bool
	applied     []types.Decision

	ops     uint64          // client requests applied, a batch's one each
	replies []types.Reply   // what Commit returns, reused by the next one
	batch   []types.Request // a batch's requests, decoded before any runs
}

// NewExecutor returns an executor for node applying to sm, starting at
// slot 1.
func NewExecutor(node types.NodeID, sm StateMachine) *Executor {
	return &Executor{
		node:      node,
		sm:        sm,
		next:      1,
		pending:   make(map[types.Seq]types.Value),
		lastSeq:   make(map[types.ClientID]uint64),
		lastReply: make(map[types.ClientID]types.Value),
	}
}

// Commit hands the executor one decided slot. It returns the replies
// produced by every newly applicable slot (possibly none, if the slot is
// ahead of the apply frontier; possibly several, if it fills a gap or
// holds a batch), in a slice that is valid until the next Commit.
// Committing two different values to one slot panics: that is a consensus
// safety violation, and the simulation must fail loudly.
func (e *Executor) Commit(d types.Decision) []types.Reply {
	if d.Slot < e.next {
		return nil // already applied (duplicate decision)
	}
	e.replies = e.replies[:0]
	if d.Slot == e.next && len(e.pending) == 0 {
		// In order with nothing parked — every decision of a live group and
		// of a healthy simulation: nothing to hold, nothing to look up.
		e.apply(d.Slot, d.Val)
		e.next++
		return e.replies
	}
	if prev, ok := e.pending[d.Slot]; ok {
		if !prev.Equal(d.Val) {
			panic(fmt.Sprintf("smr: node %v slot %d decided twice: %q vs %q", e.node, d.Slot, prev, d.Val))
		}
		return nil
	}
	e.pending[d.Slot] = d.Val
	for {
		val, ok := e.pending[e.next]
		if !ok {
			return e.replies
		}
		delete(e.pending, e.next)
		e.apply(e.next, val)
		e.next++
	}
}

// KeepHistory makes the executor record every decision it applies from
// here on, for Applied and CheckPrefixConsistency. The auditor asks —
// runner.SMRCluster does for every simulated replica; a live group,
// which would hold its log's values a second time for as long as it
// runs, does not.
func (e *Executor) KeepHistory() { e.keepHistory = true }

// apply runs one decided value, appending its replies to e.replies.
func (e *Executor) apply(slot types.Seq, val types.Value) {
	if e.keepHistory {
		e.applied = append(e.applied, types.Decision{Slot: slot, Val: val})
	}
	if snapshot.IsConfChange(val) {
		// Membership changes are consumed by the protocol layer at
		// append/learn time; the state machine never sees them. They stay
		// in the applied history so replica audits align slot-for-slot.
		return
	}
	if isBatch(val) {
		// Decoded whole before anything runs: a malformed batch applies
		// nothing, not a prefix.
		var err error
		if e.batch, err = DecodeBatch(val, e.batch[:0]); err == nil {
			for _, req := range e.batch {
				e.execute(req)
			}
		}
		clear(e.batch)
		return
	}
	req, ok := viewRequest(val)
	if !ok {
		// Not a client request (e.g. a leader no-op): apply raw with no
		// reply routing.
		e.sm.Apply(val)
		return
	}
	e.execute(req)
}

// execute runs one client request through its session's dedup entry.
func (e *Executor) execute(req types.Request) {
	e.ops++
	if last := e.lastSeq[req.Client]; last != 0 && req.SeqNo <= last {
		if req.SeqNo < last {
			// A copy of a request its session has moved past: whoever sent it
			// was answered, or gave up and was told "unknown". The cached
			// reply belongs to a later request, so there is none to give.
			return
		}
		e.replies = append(e.replies, types.Reply{
			Client: req.Client, SeqNo: req.SeqNo,
			Result: e.lastReply[req.Client], Node: e.node,
		})
		return
	}
	res := e.sm.Apply(req.Op)
	e.lastSeq[req.Client] = req.SeqNo
	e.lastReply[req.Client] = res
	e.replies = append(e.replies, types.Reply{Client: req.Client, SeqNo: req.SeqNo, Result: res, Node: e.node})
}

// NextSlot returns the first unapplied slot (the apply frontier).
func (e *Executor) NextSlot() types.Seq { return e.next }

// Sessions returns the number of client sessions in the dedup table —
// what every SnapshotState encodes on top of the state machine.
func (e *Executor) Sessions() int { return len(e.lastSeq) }

// OpsApplied counts the client requests this executor has taken from the
// log, each request of a batch as one, whether it ran or its session's
// dedup entry answered or refused it. It is this process's count: a
// snapshot neither carries it nor resets it.
func (e *Executor) OpsApplied() uint64 { return e.ops }

// SnapshotState serializes the executor's session state plus the state
// machine for a snapshot covering every slot below NextSlot():
// u64 next | u32 nClients | nClients × (u64 client | u64 lastSeq |
// u32 replyLen | reply) | u32 smLen | sm.Snapshot().
// Clients iterate in sorted order so every replica at the same frontier
// produces identical bytes.
func (e *Executor) SnapshotState() []byte {
	clients := det.SortedKeys(e.lastSeq)
	buf := make([]byte, 0, 12+24*len(clients))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.next))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(clients)))
	for _, c := range clients {
		buf = binary.BigEndian.AppendUint64(buf, uint64(c))
		buf = binary.BigEndian.AppendUint64(buf, e.lastSeq[c])
		buf = wire.AppendBytes32(buf, e.lastReply[c])
	}
	return wire.AppendBytes32(buf, e.sm.Snapshot())
}

// RestoreState replaces the executor's sessions and state machine from
// a SnapshotState blob and fast-forwards the apply frontier to the
// snapshot's. Pending out-of-order commits at or below the new frontier
// are dropped (the snapshot subsumes them); a kept apply history resets,
// so post-restore audits cover only the suffix. Malformed input is an
// explicit error and leaves the executor untouched.
func (e *Executor) RestoreState(data []byte) error {
	r := wire.NewReader(data)
	next := types.Seq(r.U64())
	n := r.Count(8 + 8 + 4)
	lastSeq := make(map[types.ClientID]uint64, n)
	lastReply := make(map[types.ClientID]types.Value, n)
	var prev types.ClientID
	for i := 0; i < n; i++ {
		c := types.ClientID(r.U64())
		if i > 0 && c <= prev {
			return ErrDecode // clients ascend strictly, as SnapshotState writes them
		}
		lastSeq[c], lastReply[c], prev = r.U64(), r.Copy32(), c
	}
	sm := r.View32() // the state machine copies what it keeps
	if !r.Done() {
		return ErrDecode
	}
	if err := e.sm.Restore(sm); err != nil {
		return err
	}
	e.next = next
	e.lastSeq, e.lastReply = lastSeq, lastReply
	e.applied = nil
	for _, slot := range det.SortedKeys(e.pending) {
		if slot < next {
			delete(e.pending, slot)
		}
	}
	return nil
}

// Applied returns the apply history in order: everything applied since
// KeepHistory (or the last RestoreState), nil if it was never asked for.
func (e *Executor) Applied() []types.Decision { return e.applied }

// CheckPrefixConsistency verifies that every executor applied the same
// value at every slot both applied — the fundamental SMR safety
// invariant. Histories are aligned by slot, not list position: an
// executor restored from a snapshot has a history starting mid-log, and
// only the overlapping slot range is compared. It returns an error
// naming the first divergence, or an executor that keeps no history:
// there is nothing to compare, which is not the same as agreement.
func CheckPrefixConsistency(execs ...*Executor) error {
	for _, e := range execs {
		if !e.keepHistory {
			return fmt.Errorf("smr: node %v keeps no apply history to check (KeepHistory was not called)", e.node)
		}
	}
	for i := 0; i < len(execs); i++ {
		for j := i + 1; j < len(execs); j++ {
			a, b := execs[i].Applied(), execs[j].Applied()
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			// Each history is a contiguous ascending slot run, so the
			// overlap is an index offset on both sides.
			lo := a[0].Slot
			if b[0].Slot > lo {
				lo = b[0].Slot
			}
			for k := 0; ; k++ {
				ka, kb := int(lo-a[0].Slot)+k, int(lo-b[0].Slot)+k
				if ka >= len(a) || kb >= len(b) {
					break
				}
				if a[ka].Slot != b[kb].Slot || !a[ka].Val.Equal(b[kb].Val) {
					return fmt.Errorf("smr: divergence at slot %d: node %v has (%d,%q), node %v has (%d,%q)",
						lo+types.Seq(k), execs[i].node, a[ka].Slot, a[ka].Val, execs[j].node, b[kb].Slot, b[kb].Val)
				}
			}
		}
	}
	return nil
}
