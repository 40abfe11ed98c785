// Package commit implements the atomic commitment protocols of the
// paper's C&C framework walkthrough: Two-Phase Commit (2PC), Three-Phase
// Commit (3PC), and fault-tolerant 3PC with the termination protocol
// ("if leader fails: elect new leader and execute termination protocol").
//
// The slides' central observations are reproduced measurably:
//
//   - 2PC blocks: a coordinator crash after collecting votes leaves
//     prepared cohorts stuck until it returns (TestTwoPCBlocks).
//   - 3PC replicates the decision to cohorts via the pre-commit phase
//     (like Paxos's fault-tolerant agreement stage), so a cohort quorum
//     can terminate the transaction after electing a new coordinator.
//
// A transaction spans a set of cohorts, each voting commit/abort through
// an application-supplied Voter (the bank example votes on balances).
package commit

import (
	"fmt"

	"fortyconsensus/internal/core"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:         "2pc",
		Failure:      core.Crash,
		Strategy:     core.Pessimistic,
		NodesFor:     func(f int) int { return f + 1 }, // no replication: every cohort required
		NodesFormula: "all cohorts",
		QuorumFor:    func(f int) int { return f + 1 },
		CommitPhases: 2,
		Complexity:   core.Linear,
		Decomposition: []core.Phase{
			core.ValueDiscovery, core.Decision, // no FT agreement: hence blocking
		},
		Notes: "atomic commitment; blocks on coordinator failure",
	})
	core.Register(core.Profile{
		Name:         "3pc",
		Failure:      core.Crash,
		Strategy:     core.Pessimistic,
		NodesFor:     func(f int) int { return f + 1 },
		NodesFormula: "all cohorts",
		QuorumFor:    func(f int) int { return f + 1 },
		CommitPhases: 3,
		Complexity:   core.Linear,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "pre-commit phase replicates the decision; termination protocol unblocks",
	})
}

// TxID identifies a distributed transaction.
type TxID uint64

// Protocol selects 2PC or 3PC behaviour.
type Protocol uint8

const (
	TwoPC Protocol = iota
	ThreePC
)

func (p Protocol) String() string {
	if p == ThreePC {
		return "3pc"
	}
	return "2pc"
}

// Outcome of a finished transaction.
type Outcome uint8

const (
	Pending Outcome = iota
	Committed
	Aborted
)

func (o Outcome) String() string {
	switch o {
	case Pending:
		return "pending"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return "pending"
}

// MsgKind enumerates commitment messages.
type MsgKind uint8

const (
	MsgPrepare MsgKind = iota + 1
	MsgVoteCommit
	MsgVoteAbort
	MsgPreCommit // 3PC only
	MsgPreAck    // 3PC only
	MsgGlobal    // final decision (Outcome in Decision field)
	MsgAck
	MsgElect  // termination: cohort announces candidacy for recovery
	MsgStatus // termination: cohort reports its state to the recoverer
)

func (k MsgKind) String() string {
	switch k {
	case MsgPrepare:
		return "prepare"
	case MsgVoteCommit:
		return "vote-commit"
	case MsgVoteAbort:
		return "vote-abort"
	case MsgPreCommit:
		return "pre-commit"
	case MsgPreAck:
		return "pre-ack"
	case MsgGlobal:
		return "global"
	case MsgAck:
		return "ack"
	case MsgElect:
		return "elect"
	case MsgStatus:
		return "status"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// cohort transaction states (3PC state machine).
type txState uint8

const (
	stIdle txState = iota
	stPrepared
	stPreCommitted
	stCommitted
	stAborted
)

// Message is a commitment wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	Tx       TxID
	Op       types.Value // Prepare: the cohort's operation
	Decision Outcome     // MsgGlobal
	State    uint8       // MsgStatus: cohort txState
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Voter decides a cohort's vote on an operation: true = commit.
type Voter func(tx TxID, op types.Value) bool

// Applier executes a committed operation at a cohort.
type Applier func(tx TxID, op types.Value)

// Txn is one distributed transaction as the coordinator sees it.
type Txn struct {
	ID      TxID
	Outcome Outcome
}

// Coordinator drives transactions over a set of cohorts.
type Coordinator struct {
	types.Outbox[Message]
	id       types.NodeID
	proto    Protocol
	now      int
	txns     map[TxID]*coordTx
	finished []*Txn
}

type coordTx struct {
	txn      *Txn
	cohorts  []types.NodeID
	votes    map[types.NodeID]bool
	preAcks  map[types.NodeID]bool
	acks     map[types.NodeID]bool
	state    txState
	deadline int
}

// CoordTimeout is how long the coordinator waits for votes/acks before
// aborting, in ticks.
const CoordTimeout = 50

// NewCoordinator builds a coordinator node.
func NewCoordinator(id types.NodeID, proto Protocol) *Coordinator {
	return &Coordinator{id: id, proto: proto, txns: make(map[TxID]*coordTx)}
}

// Begin starts a transaction across the cohorts named in ops.
func (c *Coordinator) Begin(tx TxID, ops map[types.NodeID]types.Value) {
	cohorts := det.SortedKeys(ops)
	ct := &coordTx{
		txn:      &Txn{ID: tx},
		cohorts:  cohorts,
		votes:    make(map[types.NodeID]bool),
		preAcks:  make(map[types.NodeID]bool),
		acks:     make(map[types.NodeID]bool),
		state:    stPrepared,
		deadline: c.now + CoordTimeout,
	}
	c.txns[tx] = ct
	for _, id := range cohorts {
		c.send(Message{Kind: MsgPrepare, To: id, Tx: tx, Op: ops[id]})
	}
}

func (c *Coordinator) send(m Message) {
	m.From = c.id
	c.Post(m)
}

// Step consumes one delivered message.
func (c *Coordinator) Step(m Message) {
	ct, ok := c.txns[m.Tx]
	if !ok {
		// Late message for a finished txn: re-announce the decision so
		// recovering cohorts converge.
		for _, t := range c.finished {
			if t.ID == m.Tx && t.Outcome != Pending {
				c.send(Message{Kind: MsgGlobal, To: m.From, Tx: m.Tx, Decision: t.Outcome})
			}
		}
		return
	}
	switch m.Kind {
	case MsgPrepare, MsgPreCommit, MsgGlobal, MsgElect, MsgStatus: // cohort-bound
	case MsgVoteCommit:
		ct.votes[m.From] = true
		if len(ct.votes) == len(ct.cohorts) && allTrue(ct.votes) {
			if c.proto == ThreePC {
				ct.state = stPreCommitted
				ct.deadline = c.now + CoordTimeout
				for _, id := range ct.cohorts {
					c.send(Message{Kind: MsgPreCommit, To: id, Tx: m.Tx})
				}
			} else {
				c.decide(ct, Committed)
			}
		}
	case MsgVoteAbort:
		ct.votes[m.From] = false
		c.decide(ct, Aborted)
	case MsgPreAck:
		if c.proto != ThreePC || ct.state != stPreCommitted {
			return
		}
		ct.preAcks[m.From] = true
		if len(ct.preAcks) == len(ct.cohorts) {
			c.decide(ct, Committed)
		}
	case MsgAck:
		ct.acks[m.From] = true
	}
}

func allTrue(m map[types.NodeID]bool) bool {
	for _, v := range m {
		if !v {
			return false
		}
	}
	return true
}

func (c *Coordinator) decide(ct *coordTx, o Outcome) {
	ct.txn.Outcome = o
	if o == Committed {
		ct.state = stCommitted
	} else {
		ct.state = stAborted
	}
	for _, id := range ct.cohorts {
		c.send(Message{Kind: MsgGlobal, To: id, Tx: ct.txn.ID, Decision: o})
	}
	c.finished = append(c.finished, ct.txn)
	delete(c.txns, ct.txn.ID)
}

// Tick advances coordinator timeouts: missing votes abort the
// transaction; in 3PC, missing pre-acks still commit (every cohort that
// matters reached prepared, and the termination protocol covers the
// rest) — we follow the conservative route and re-send pre-commits.
func (c *Coordinator) Tick() {
	c.now++
	for _, tx := range det.SortedKeys(c.txns) {
		ct := c.txns[tx]
		if c.now < ct.deadline {
			continue
		}
		switch ct.state {
		case stIdle, stCommitted, stAborted: // no timer to fire
		case stPrepared:
			c.decide(ct, Aborted) // a silent cohort vetoes
		case stPreCommitted:
			ct.deadline = c.now + CoordTimeout
			for _, id := range ct.cohorts {
				if !ct.preAcks[id] {
					c.send(Message{Kind: MsgPreCommit, To: id, Tx: ct.txn.ID})
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------

// Cohort is a transaction participant.
type Cohort struct {
	types.Outbox[Message]
	id      types.NodeID
	proto   Protocol
	peers   []types.NodeID // all cohorts, for the termination protocol
	vote    Voter
	apply   Applier
	now     int
	txns    map[TxID]*cohortTx
	blocked int // prepared txns past their decision deadline (2PC metric)
}

type cohortTx struct {
	op      types.Value
	state   txState
	votedAt int
	// Termination-protocol state (when acting as recovery coordinator).
	statuses map[types.NodeID]txState
}

// CohortTimeout is how long a prepared cohort waits for a decision
// before it considers itself blocked and (in 3PC) starts termination.
const CohortTimeout = 80

// NewCohort builds a cohort. peers lists every cohort (for termination);
// vote and apply supply application semantics.
func NewCohort(id types.NodeID, peers []types.NodeID, proto Protocol, vote Voter, apply Applier) *Cohort {
	return &Cohort{
		id: id, proto: proto, peers: peers,
		vote: vote, apply: apply, txns: make(map[TxID]*cohortTx),
	}
}

// Outcome reports the cohort's view of a transaction.
func (h *Cohort) Outcome(tx TxID) Outcome {
	t, ok := h.txns[tx]
	if !ok {
		return Pending
	}
	switch t.state {
	case stCommitted:
		return Committed
	case stAborted:
		return Aborted
	case stIdle, stPrepared, stPreCommitted:
		return Pending
	}
	return Pending
}

func (h *Cohort) send(m Message) {
	m.From = h.id
	h.Post(m)
}

// Step consumes one delivered message.
func (h *Cohort) Step(m Message) {
	switch m.Kind {
	case MsgVoteCommit, MsgVoteAbort, MsgPreAck, MsgAck: // coordinator-bound
	case MsgPrepare:
		h.onPrepare(m)
	case MsgPreCommit:
		if t, ok := h.txns[m.Tx]; ok && t.state == stPrepared {
			t.state = stPreCommitted
		}
		h.send(Message{Kind: MsgPreAck, To: m.From, Tx: m.Tx})
	case MsgGlobal:
		h.finish(m.Tx, m.Decision)
		h.send(Message{Kind: MsgAck, To: m.From, Tx: m.Tx})
	case MsgElect:
		// Another cohort runs termination; report our state.
		st := stIdle
		if t, ok := h.txns[m.Tx]; ok {
			st = t.state
		}
		h.send(Message{Kind: MsgStatus, To: m.From, Tx: m.Tx, State: uint8(st)})
	case MsgStatus:
		h.onStatus(m)
	}
}

func (h *Cohort) onPrepare(m Message) {
	if _, ok := h.txns[m.Tx]; ok {
		return // duplicate
	}
	t := &cohortTx{op: m.Op, votedAt: h.now}
	h.txns[m.Tx] = t
	if h.vote == nil || h.vote(m.Tx, m.Op) {
		t.state = stPrepared
		h.send(Message{Kind: MsgVoteCommit, To: m.From, Tx: m.Tx})
	} else {
		t.state = stAborted
		h.send(Message{Kind: MsgVoteAbort, To: m.From, Tx: m.Tx})
	}
}

func (h *Cohort) finish(tx TxID, o Outcome) {
	t, ok := h.txns[tx]
	if !ok {
		t = &cohortTx{}
		h.txns[tx] = t
	}
	switch t.state {
	case stIdle, stPrepared, stPreCommitted: // take the decision below
	case stCommitted:
		if o == Aborted {
			panic(fmt.Sprintf("commit: cohort %v tx %d committed then aborted", h.id, tx))
		}
		return
	case stAborted:
		if o == Committed && t.op != nil {
			panic(fmt.Sprintf("commit: cohort %v tx %d aborted then committed", h.id, tx))
		}
		return
	}
	if o == Committed {
		t.state = stCommitted
		if h.apply != nil && t.op != nil {
			h.apply(tx, t.op)
		}
	} else {
		t.state = stAborted
	}
}

// onStatus collects termination-protocol reports when this cohort acts
// as the elected recovery coordinator.
func (h *Cohort) onStatus(m Message) {
	t, ok := h.txns[m.Tx]
	if !ok || t.statuses == nil {
		return
	}
	t.statuses[m.From] = txState(m.State)
	h.maybeTerminate(m.Tx, t)
}

// maybeTerminate applies the 3PC termination rule over collected states:
// any committed → commit; any pre-committed → commit; any aborted →
// abort; all merely prepared → abort (safe: no one can have committed,
// because commit requires every cohort pre-committed first).
func (h *Cohort) maybeTerminate(tx TxID, t *cohortTx) {
	anyCommitted, anyPre, anyAborted := false, false, false
	for _, st := range t.statuses {
		switch st {
		case stCommitted:
			anyCommitted = true
		case stPreCommitted:
			anyPre = true
		case stAborted, stIdle:
			anyAborted = true
		case stPrepared:
			// Merely prepared is no evidence either way; all-prepared
			// falls to the abort rule below.
		}
	}
	switch t.state {
	case stCommitted:
		anyCommitted = true
	case stPreCommitted:
		anyPre = true
	case stAborted:
		anyAborted = true
	case stIdle, stPrepared:
		// The recovery coordinator's own idle/prepared state adds no
		// evidence beyond its collected statuses.
	}
	var decision Outcome
	switch {
	case anyCommitted || anyPre:
		decision = Committed
	case anyAborted:
		decision = Aborted
	default:
		// All prepared and the coordinator unreachable: abort is safe
		// because global commit requires a full pre-commit round.
		decision = Aborted
	}
	// Require reports from all peers before deciding, so the decision is
	// based on complete knowledge of the live set. Crashed peers are
	// waited out by re-election ticks.
	if len(t.statuses) >= len(h.peers)-1 { // all other cohorts answered
		t.statuses = nil
		h.finish(tx, decision)
		for _, p := range h.peers {
			if p != h.id {
				h.send(Message{Kind: MsgGlobal, To: p, Tx: tx, Decision: decision})
			}
		}
	}
}

// Tick advances cohort timers: prepared transactions past the deadline
// count as blocked; under 3PC the lowest-ID cohort additionally starts
// the termination protocol.
func (h *Cohort) Tick() {
	h.now++
	h.blocked = 0
	for _, tx := range det.SortedKeys(h.txns) {
		t := h.txns[tx]
		if t.state != stPrepared && t.state != stPreCommitted {
			continue
		}
		if h.now-t.votedAt < CohortTimeout {
			continue
		}
		h.blocked++
		if h.proto != ThreePC {
			continue // 2PC: stuck until the coordinator returns
		}
		// Termination: the lowest-ID cohort takes over as recovery
		// coordinator (deterministic election) and polls states.
		if h.id == h.lowestPeer() && t.statuses == nil {
			t.statuses = make(map[types.NodeID]txState)
			t.votedAt = h.now // re-arm
			for _, p := range h.peers {
				if p != h.id {
					h.send(Message{Kind: MsgElect, To: p, Tx: tx})
				}
			}
		}
	}
}

func (h *Cohort) lowestPeer() types.NodeID {
	low := h.id
	for _, p := range h.peers {
		if p < low {
			low = p
		}
	}
	return low
}
