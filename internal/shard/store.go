package shard

import (
	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// Shard-level reply payloads, alongside kvstore's.
var (
	ReplyVoteCommit    = types.Value("TX_VOTE_COMMIT")
	ReplyVoteAbort     = types.Value("TX_VOTE_ABORT")
	ReplyTxOK          = types.Value("TX_OK")
	ReplyConflict      = types.Value("TX_CONFLICT")
	ReplyLocked        = types.Value("TX_LOCKED")
	ReplyDecidedCommit = types.Value("TX_DECIDED_COMMIT")
	ReplyDecidedAbort  = types.Value("TX_DECIDED_ABORT")
)

// EventKind classifies transaction transitions a Store applied.
type EventKind uint8

const (
	EvPrepared EventKind = iota + 1
	EvVoteAbort
	EvCommitted
	EvAborted
	EvDecided
)

func (k EventKind) String() string {
	switch k {
	case EvPrepared:
		return "prepared"
	case EvVoteAbort:
		return "vote-abort"
	case EvCommitted:
		return "committed"
	case EvAborted:
		return "aborted"
	case EvDecided:
		return "decided"
	}
	return "unknown"
}

// Event is one applied transaction transition, drained by invariant
// trackers and metrics. Every replica of a shard emits the identical
// event stream because events are a pure function of the replicated
// log.
type Event struct {
	Tx      commit.TxID
	Kind    EventKind
	Outcome commit.Outcome // EvDecided only
}

// stagedTxn is a prepared transaction awaiting its outcome.
type stagedTxn struct {
	cmds []kvstore.Command
	keys []string // locked keys, in lock-acquisition order
}

// Store is the per-replica shard state machine: the deterministic
// kvstore plus a prepare-lock table, staged write sets, and latched
// per-transaction outcomes. It implements smr.StateMachine, so the
// entire 2PC participant state — locks, votes, outcomes — lives in the
// replicated log and survives any leader crash.
//
// Every transition latches: once a transaction votes, commits, or
// aborts here, re-applying any transaction command yields the same
// answer. That idempotence is what makes coordinator retries (fresh or
// duplicate log entries) safe.
type Store struct {
	kv       *kvstore.Store
	locks    map[string]commit.TxID     // key -> owning prepared txn
	staged   map[commit.TxID]*stagedTxn // prepared, undecided txns
	outcomes map[commit.TxID]commit.Outcome
	decided  map[commit.TxID]commit.Outcome // home-shard decision records
	events   []Event
}

// NewStore returns an empty shard state machine.
func NewStore() *Store {
	return &Store{
		kv:       kvstore.New(),
		locks:    make(map[string]commit.TxID),
		staged:   make(map[commit.TxID]*stagedTxn),
		outcomes: make(map[commit.TxID]commit.Outcome),
		decided:  make(map[commit.TxID]commit.Outcome),
	}
}

// KV exposes the underlying committed store for local reads and audits.
func (s *Store) KV() *kvstore.Store { return s.kv }

// TakeEvents drains the applied transaction transitions in order.
func (s *Store) TakeEvents() []Event {
	e := s.events
	s.events = nil
	return e
}

// Apply executes one committed log entry. Plain kvstore commands pass
// through (writes to prepare-locked keys are refused with ReplyLocked —
// the client retries after the lock holder resolves); 0xE0-range
// commands run the transaction protocol. Malformed input replies
// deterministically, never panics: every replica must produce the same
// result for every input.
func (s *Store) Apply(cmd types.Value) types.Value {
	if !IsTxnCmd(cmd) {
		return s.applyKV(cmd)
	}
	c, err := DecodeCmd(cmd)
	if err != nil {
		return kvstore.ReplyBadCmd
	}
	switch c.Kind {
	case TxApply:
		return s.applyBatch(c)
	case TxPrepare:
		return s.applyPrepare(c)
	case TxCommit:
		return s.applyOutcome(c.Tx, commit.Committed)
	case TxAbort:
		return s.applyOutcome(c.Tx, commit.Aborted)
	case TxDecide:
		return s.applyDecide(c)
	}
	return kvstore.ReplyBadCmd
}

// Query answers a plain GET as kvstore.Store.Query does: committed data,
// prepare-locked or not, as Apply reads it. A transaction is ReplyBadCmd.
func (s *Store) Query(cmd types.Value) types.Value {
	if IsTxnCmd(cmd) {
		return kvstore.ReplyBadCmd
	}
	return s.kv.Query(cmd)
}

// applyKV runs one plain kvstore command, honouring prepare locks.
func (s *Store) applyKV(cmd types.Value) types.Value {
	// A malformed command falls through: kvstore renders its own BAD_COMMAND.
	if op, key, _, _, ok := kvstore.View(cmd); ok && isWrite(op) && len(s.locks) > 0 {
		if _, held := s.locks[string(key)]; held {
			return ReplyLocked
		}
	}
	return s.kv.Apply(cmd)
}

func isWrite(op uint8) bool {
	switch op {
	case kvstore.OpPut, kvstore.OpDelete, kvstore.OpCAS, kvstore.OpIncr:
		return true
	}
	return false
}

// applyBatch applies a single-shard transaction in one atomic log
// entry. Any prepare lock on any written key refuses the whole batch.
func (s *Store) applyBatch(c Cmd) types.Value {
	if o, done := s.outcomes[c.Tx]; done && o != commit.Pending {
		// A retried batch that already ran: latched, don't re-execute.
		if o == commit.Committed {
			return ReplyTxOK
		}
		return ReplyConflict
	}
	for _, kc := range c.Cmds {
		if isWrite(kc.Op) {
			if _, held := s.locks[kc.Key]; held {
				return ReplyLocked
			}
		}
	}
	for _, kc := range c.Cmds {
		s.kv.Apply(kc.Encode())
	}
	s.outcomes[c.Tx] = commit.Committed
	s.events = append(s.events, Event{Tx: c.Tx, Kind: EvCommitted})
	return ReplyTxOK
}

// applyPrepare stages a participant's write set and computes its vote.
// The vote latches with the first prepare to reach the log: duplicates
// (coordinator retries, recovery re-prepares) re-read it.
func (s *Store) applyPrepare(c Cmd) types.Value {
	if o := s.outcomes[c.Tx]; o == commit.Committed {
		return ReplyVoteCommit
	} else if o == commit.Aborted {
		return ReplyVoteAbort
	}
	if _, ok := s.staged[c.Tx]; ok {
		return ReplyVoteCommit // already prepared
	}
	for _, kc := range c.Cmds {
		if !isWrite(kc.Op) {
			continue
		}
		if owner, held := s.locks[kc.Key]; held && owner != c.Tx {
			// Conflict: vote no, and latch the abort so no later
			// coordinator can extract a yes from this shard.
			s.outcomes[c.Tx] = commit.Aborted
			s.events = append(s.events, Event{Tx: c.Tx, Kind: EvVoteAbort})
			return ReplyVoteAbort
		}
	}
	st := &stagedTxn{cmds: c.Cmds}
	for _, kc := range c.Cmds {
		if !isWrite(kc.Op) {
			continue
		}
		if _, held := s.locks[kc.Key]; !held {
			s.locks[kc.Key] = c.Tx
			st.keys = append(st.keys, kc.Key)
		}
	}
	s.staged[c.Tx] = st
	s.events = append(s.events, Event{Tx: c.Tx, Kind: EvPrepared})
	return ReplyVoteCommit
}

// applyOutcome commits or aborts a prepared transaction. Both
// transitions latch; conflicting re-application reports ReplyConflict
// without changing state, so a broken coordinator cannot corrupt a
// shard — only produce a cross-shard mix the invariant catches.
func (s *Store) applyOutcome(tx commit.TxID, o commit.Outcome) types.Value {
	if prev := s.outcomes[tx]; prev == o {
		return ReplyTxOK
	} else if prev != commit.Pending {
		return ReplyConflict
	}
	st := s.staged[tx]
	if o == commit.Committed {
		if st != nil {
			for _, kc := range st.cmds {
				s.kv.Apply(kc.Encode())
			}
		}
		s.events = append(s.events, Event{Tx: tx, Kind: EvCommitted})
	} else {
		s.events = append(s.events, Event{Tx: tx, Kind: EvAborted})
	}
	if st != nil {
		for _, k := range st.keys {
			delete(s.locks, k)
		}
		delete(s.staged, tx)
	}
	s.outcomes[tx] = o
	return ReplyTxOK
}

// applyDecide latches the home-shard decision record: the first
// TxDecide in the log wins, and every later one — from any coordinator
// — reads the latched outcome back. This is the single replicated
// commit point that makes dueling coordinators converge.
func (s *Store) applyDecide(c Cmd) types.Value {
	o, ok := s.decided[c.Tx]
	if !ok {
		o = c.Outcome
		s.decided[c.Tx] = o
		s.events = append(s.events, Event{Tx: c.Tx, Kind: EvDecided, Outcome: o})
	}
	if o == commit.Committed {
		return ReplyDecidedCommit
	}
	return ReplyDecidedAbort
}
