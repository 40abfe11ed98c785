package shard

import (
	"cmp"
	"slices"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// txnPhase tracks a coordinator's progress through one transaction.
type txnPhase uint8

const (
	phApplying    txnPhase = iota + 1 // single-shard fast path: TxApply in flight
	phPreparing                       // TxPrepare outstanding, collecting votes
	phDeciding                        // TxDecide outstanding at the home shard
	phPropagating                     // TxCommit/TxAbort outstanding at participants
	phDone
)

// pendingKind says which protocol step a pending request belongs to, so
// replies can be checked against the step's expected result set. A reply
// outside that set is a dedup artifact — the smr layer answered a retried
// seqno with a later request's cached result — and the step is reissued
// under a fresh seqno (safe: the original can never re-apply once a later
// seqno from this client applied, and every Store transition latches).
type pendingKind uint8

const (
	pApply pendingKind = iota + 1
	pPrepare
	pDecide
	pFinish
)

// pendingReq is one in-flight request to a shard group.
type pendingReq struct {
	kind     pendingKind
	tx       commit.TxID
	shard    int
	cmd      types.Value // encoded shard command, resent verbatim on retry
	issuedAt int
}

// coordTxn is the coordinator's local view of one transaction.
type coordTxn struct {
	tx      commit.TxID
	shards  []int        // sorted participants; shards[0] is the home shard
	votes   map[int]bool // vote received per shard (true = commit)
	phase   txnPhase
	intent  commit.Outcome // local all-yes/any-no verdict, pre-latch
	outcome commit.Outcome // latched outcome read back from TxDecide
	acked   map[int]bool   // finish acknowledged per shard
	begunAt int
}

// TxnResult is one finished transaction, drained for metrics.
type TxnResult struct {
	Tx      commit.TxID
	Shards  []int
	Outcome commit.Outcome
}

// Coordinator drives transactions over shard groups: the single-shard
// TxApply fast path, and 2PC with the decision latched in the home
// shard's replicated log. It is driven by the Service: Begin/Adopt
// start work, OnReply consumes routed replies, Tick retries.
//
// Session discipline: every request runs in its OWN smr client session
// (Client = client base + seq, SeqNo = seq). The executor's dedup cache
// assumes one outstanding request per client; a coordinator multiplexes
// many concurrent transactions, and under reordered commits a shared
// session would answer an earlier request with a LATER request's cached
// reply — e.g. tx2's vote mislabelled as tx1's, committing a
// transaction that never prepared. Per-request sessions make a cached
// reply always the request's own first execution.
//
// Retry discipline (see pendingKind): silence retries the same session;
// only a protocol-mismatched reply or a lock conflict reissues under a
// fresh one.
type Coordinator struct {
	client  types.ClientID // base of this coordinator's session range
	seq     uint64
	pending map[uint64]*pendingReq
	txns    map[commit.TxID]*coordTxn // every transaction ever driven: Knows
	open    []*coordTxn               // the unfinished ones, ascending TxID: what Tick walks

	submit func(shard int, req types.Value) bool
	unsafe bool // ship per-shard outcomes straight from votes, no TxDecide

	done []TxnResult
}

// NewCoordinator builds a coordinator submitting through submit.
func NewCoordinator(client types.ClientID, unsafe bool, submit func(shard int, req types.Value) bool) *Coordinator {
	return &Coordinator{
		client:  client,
		pending: make(map[uint64]*pendingReq),
		txns:    make(map[commit.TxID]*coordTxn),
		submit:  submit,
		unsafe:  unsafe,
	}
}

// send issues cmd to shard under a fresh session and registers the
// pending entry. Submission failure (no live leader) is not handled
// here: the entry simply times out and Tick resends it.
func (co *Coordinator) send(kind pendingKind, tx commit.TxID, shard int, cmd Cmd, now int) {
	co.seq++
	enc := cmd.Encode()
	co.pending[co.seq] = &pendingReq{kind: kind, tx: tx, shard: shard, cmd: enc, issuedAt: now}
	co.submit(shard, co.encode(co.seq, enc))
}

// encode wraps an op in request seq's dedicated client session.
func (co *Coordinator) encode(seq uint64, op types.Value) types.Value {
	return smr.EncodeRequest(types.Request{
		Client: co.client + types.ClientID(seq), SeqNo: seq, Op: op,
	})
}

// Begin starts a transaction whose per-shard command lists are cmds.
// Single-shard transactions take the TxApply fast path; cross-shard
// ones enter 2PC. Duplicate Begin/Adopt for a known tx is a no-op.
func (co *Coordinator) Begin(tx commit.TxID, cmds map[int][]kvstore.Command, now int) {
	if _, ok := co.txns[tx]; ok {
		return
	}
	shards := det.SortedKeys(cmds)
	t := &coordTxn{
		tx: tx, shards: shards,
		votes: make(map[int]bool), acked: make(map[int]bool),
		begunAt: now,
	}
	co.txns[tx] = t
	at, _ := co.openIndex(tx)
	co.open = slices.Insert(co.open, at, t)
	if len(shards) == 1 {
		t.phase = phApplying
		co.send(pApply, tx, shards[0], Apply(tx, cmds[shards[0]]), now)
		return
	}
	t.phase = phPreparing
	for _, s := range shards {
		co.send(pPrepare, tx, s, Prepare(tx, cmds[s]), now)
	}
}

// Adopt is recovery: a second coordinator re-drives a transaction whose
// original owner went quiet. It replays the same protocol — prepares
// re-read latched votes, and the home-shard TxDecide latch guarantees
// both coordinators converge on one outcome.
func (co *Coordinator) Adopt(tx commit.TxID, cmds map[int][]kvstore.Command, now int) {
	co.Begin(tx, cmds, now)
}

// OnReply consumes one routed client reply.
func (co *Coordinator) OnReply(r types.Reply, now int) {
	p, ok := co.pending[r.SeqNo]
	if !ok {
		return // stale duplicate of an already-consumed reply
	}
	t := co.txns[p.tx]
	if t == nil || t.phase == phDone {
		delete(co.pending, r.SeqNo)
		return
	}
	switch p.kind {
	case pApply:
		co.onApplyReply(p, t, r.Result, now)
	case pPrepare:
		co.onVote(p, t, r.Result, now)
	case pDecide:
		co.onDecided(p, t, r.Result, now)
	case pFinish:
		co.onFinished(p, t, r.Result, now)
	}
	delete(co.pending, r.SeqNo)
}

func (co *Coordinator) onApplyReply(p *pendingReq, t *coordTxn, res types.Value, now int) {
	switch {
	case res.Equal(ReplyTxOK):
		co.finish(t, commit.Committed)
	case res.Equal(ReplyConflict):
		co.finish(t, commit.Aborted)
	case res.Equal(ReplyLocked):
		// A prepared cross-shard txn holds a key we write. Its locks
		// release once its outcome propagates; retry under a fresh seqno
		// (the latched TX_LOCKED answer would otherwise replay forever).
		co.resend(p, now)
	default:
		co.resend(p, now) // dedup artifact: reissue fresh
	}
}

// resend reissues p's command under a fresh session. The caller deletes
// the old pending entry after OnReply returns.
func (co *Coordinator) resend(p *pendingReq, now int) {
	co.seq++
	np := *p
	np.issuedAt = now
	co.pending[co.seq] = &np
	co.submit(np.shard, co.encode(co.seq, np.cmd))
}

func (co *Coordinator) onVote(p *pendingReq, t *coordTxn, res types.Value, now int) {
	var vote bool
	switch {
	case res.Equal(ReplyVoteCommit):
		vote = true
	case res.Equal(ReplyVoteAbort):
		vote = false
	default:
		co.resend(p, now)
		return
	}
	if _, have := t.votes[p.shard]; !have {
		t.votes[p.shard] = vote
	}
	if co.unsafe {
		// Broken fixture: ship this shard's outcome straight from its
		// vote — no replicated decision point. Two interleaved
		// transactions can then commit on one shard and abort on the
		// other, which the atomic-commitment invariant must catch.
		out := Abort(t.tx)
		if vote {
			out = Commit(t.tx)
		}
		co.send(pFinish, t.tx, p.shard, out, now)
		return
	}
	if t.phase != phPreparing || len(t.votes) < len(t.shards) {
		return
	}
	t.intent = commit.Committed
	for _, s := range t.shards {
		if !t.votes[s] {
			t.intent = commit.Aborted
			break
		}
	}
	co.decide(t, now)
}

// decide moves to the TxDecide round at the home shard.
func (co *Coordinator) decide(t *coordTxn, now int) {
	t.phase = phDeciding
	co.send(pDecide, t.tx, t.shards[0], Decide(t.tx, t.intent), now)
}

func (co *Coordinator) onDecided(p *pendingReq, t *coordTxn, res types.Value, now int) {
	switch {
	case res.Equal(ReplyDecidedCommit):
		t.outcome = commit.Committed
	case res.Equal(ReplyDecidedAbort):
		t.outcome = commit.Aborted
	default:
		co.resend(p, now)
		return
	}
	if t.phase != phDeciding {
		return
	}
	// Propagate the LATCHED outcome — never the local intent. A dueling
	// coordinator that latched first already fixed the answer.
	t.phase = phPropagating
	out := Abort(t.tx)
	if t.outcome == commit.Committed {
		out = Commit(t.tx)
	}
	for _, s := range t.shards {
		co.send(pFinish, t.tx, s, out, now)
	}
}

func (co *Coordinator) onFinished(p *pendingReq, t *coordTxn, res types.Value, now int) {
	switch {
	case res.Equal(ReplyTxOK), res.Equal(ReplyConflict):
		// TX_CONFLICT here means the shard had latched the opposite
		// outcome before our command applied; the shard's latch already
		// holds, so there is nothing further to drive. (Safe
		// coordinators never see this — votes latch — but the unsafe
		// fixture does.)
		t.acked[p.shard] = true
	default:
		co.resend(p, now)
		return
	}
	if len(t.acked) == len(t.shards) && t.phase != phDone {
		out := t.outcome
		if co.unsafe || out == commit.Pending {
			out = t.intent
			if co.unsafe {
				out = commit.Committed
				for _, s := range t.shards {
					if !t.votes[s] {
						out = commit.Aborted
					}
				}
			}
		}
		co.finish(t, out)
	}
}

// openIndex finds tx's place in co.open.
func (co *Coordinator) openIndex(tx commit.TxID) (int, bool) {
	return slices.BinarySearchFunc(co.open, tx, func(t *coordTxn, tx commit.TxID) int { return cmp.Compare(t.tx, tx) })
}

func (co *Coordinator) finish(t *coordTxn, o commit.Outcome) {
	t.phase = phDone
	if at, ok := co.openIndex(t.tx); ok {
		co.open = slices.Delete(co.open, at, at+1)
	}
	co.done = append(co.done, TxnResult{
		Tx: t.tx, Shards: t.shards, Outcome: o,
	})
}

// Tick drives timeouts: silent pending requests are resent under the
// same session (dedup replays the latched answer if the original
// landed), and a prepare round that outlived voteTimeout is presumed
// wedged — the coordinator moves to decide an abort, which the
// home-shard latch either confirms or overrides with an earlier commit.
func (co *Coordinator) Tick(now int) {
	for _, seqno := range det.SortedKeys(co.pending) {
		p := co.pending[seqno]
		if now-p.issuedAt >= retryEvery {
			p.issuedAt = now
			co.submit(p.shard, co.encode(seqno, p.cmd))
		}
	}
	if co.unsafe {
		return
	}
	for _, t := range co.open {
		if t.phase == phPreparing && now-t.begunAt >= voteTimeout {
			t.intent = commit.Aborted
			co.decide(t, now)
		}
	}
}

// TakeCompleted drains finished transactions.
func (co *Coordinator) TakeCompleted() []TxnResult {
	d := co.done
	co.done = nil
	return d
}

// Knows reports whether the coordinator is (or was) driving tx.
func (co *Coordinator) Knows(tx commit.TxID) bool {
	_, ok := co.txns[tx]
	return ok
}
