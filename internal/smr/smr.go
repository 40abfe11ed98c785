// Package smr is the state-machine-replication shell shared by every
// protocol: it encodes client requests into consensus values, applies
// committed slots to the application state machine in order, and
// deduplicates client retries so a command executes exactly once even
// when the client or the protocol retransmits — the "replicated log"
// slides of the paper.
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
	buf := make([]byte, 0, 16+len(r.Op))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Client))
	buf = binary.BigEndian.AppendUint64(buf, r.SeqNo)
	buf = append(buf, r.Op...)
	return types.Value(buf)
}

// ErrDecode reports a malformed encoded request.
var ErrDecode = errors.New("smr: malformed request encoding")

// DecodeRequest unpacks a consensus value into a client request. Op is
// a copy: the request outlives v.
func DecodeRequest(v types.Value) (types.Request, error) {
	r := wire.NewReader(v)
	req := types.Request{Client: types.ClientID(r.U64()), SeqNo: r.U64()}
	req.Op = r.Copy(r.Len())
	if r.Err() != nil {
		return types.Request{}, ErrDecode
	}
	return req, nil
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
// ahead of the apply frontier; possibly several, if it fills a gap).
// Committing two different values to one slot panics: that is a consensus
// safety violation, and the simulation must fail loudly.
func (e *Executor) Commit(d types.Decision) []types.Reply {
	if d.Slot < e.next {
		return nil // already applied (duplicate decision)
	}
	if d.Slot == e.next && len(e.pending) == 0 {
		// In order with nothing parked — every decision of a live group and
		// of a healthy simulation: nothing to hold, nothing to look up.
		r, ok := e.apply(d.Slot, d.Val)
		e.next++
		if !ok {
			return nil
		}
		return []types.Reply{r}
	}
	if prev, ok := e.pending[d.Slot]; ok {
		if !prev.Equal(d.Val) {
			panic(fmt.Sprintf("smr: node %v slot %d decided twice: %q vs %q", e.node, d.Slot, prev, d.Val))
		}
		return nil
	}
	e.pending[d.Slot] = d.Val
	var replies []types.Reply
	for {
		val, ok := e.pending[e.next]
		if !ok {
			return replies
		}
		delete(e.pending, e.next)
		if r, ok := e.apply(e.next, val); ok {
			replies = append(replies, r)
		}
		e.next++
	}
}

// KeepHistory makes the executor record every decision it applies from
// here on, for Applied and CheckPrefixConsistency. The auditor asks —
// runner.SMRCluster does for every simulated replica; a live group,
// which would hold its log's values a second time for as long as it
// runs, does not.
func (e *Executor) KeepHistory() { e.keepHistory = true }

func (e *Executor) apply(slot types.Seq, val types.Value) (types.Reply, bool) {
	if e.keepHistory {
		e.applied = append(e.applied, types.Decision{Slot: slot, Val: val})
	}
	if snapshot.IsConfChange(val) {
		// Membership changes are consumed by the protocol layer at
		// append/learn time; the state machine never sees them. They stay
		// in the applied history so replica audits align slot-for-slot.
		return types.Reply{}, false
	}
	req, err := DecodeRequest(val)
	if err != nil {
		// Not a client request (e.g. a leader no-op): apply raw with no
		// reply routing.
		e.sm.Apply(val)
		return types.Reply{}, false
	}
	if last := e.lastSeq[req.Client]; last != 0 && req.SeqNo <= last {
		if req.SeqNo < last {
			// A copy of a request its session has moved past: whoever sent it
			// was answered, or gave up and was told "unknown". The cached
			// reply belongs to a later request, so there is none to give.
			return types.Reply{}, false
		}
		return types.Reply{
			Client: req.Client, SeqNo: req.SeqNo,
			Result: e.lastReply[req.Client], Node: e.node,
		}, true
	}
	res := e.sm.Apply(req.Op)
	e.lastSeq[req.Client] = req.SeqNo
	e.lastReply[req.Client] = res
	return types.Reply{Client: req.Client, SeqNo: req.SeqNo, Result: res, Node: e.node}, true
}

// NextSlot returns the first unapplied slot (the apply frontier).
func (e *Executor) NextSlot() types.Seq { return e.next }

// Sessions returns the number of client sessions in the dedup table —
// what every SnapshotState encodes on top of the state machine.
func (e *Executor) Sessions() int { return len(e.lastSeq) }

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
