package smr

import (
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/types"
)

// Proposer is the module surface a Sessions table enters requests
// through: raft.Node and multipaxos.Node, or shard's PBFT entry point.
type Proposer interface {
	IsLeader() bool
	Submit(types.Value)
}

// Refusal is what Sessions.Enter reports: Taken, or why it refused.
type Refusal uint8

const (
	Taken     Refusal = iota
	NotLeader         // the module does not claim to lead
	Dead              // a snapshot restore failed: the replica applies nothing again
)

// Sessions is one replica's client-session table, the one both hosts
// keep per replica: live.smrGroup and shard's simulated groups. It
// holds one waiting entry per session. A session has one request
// outstanding at a time (the Executor's dedup contract), so a newer
// seqno replaces an unanswered entry, and a reply answers an entry
// once, only if it carries the entry's seqno. W is what the host needs
// to answer (a connection and a request ID, say).
type Sessions[W any] struct {
	rep     *Replica
	mod     Proposer
	waiting map[types.ClientID]waiter[W]
	writes  []types.Request // taken since the last Propose
	answers []Answer[W]     // Pump's, reused by the next one
}

type waiter[W any] struct {
	seqno uint64
	w     W
}

// Answer is a waiting entry with the reply that answers it.
type Answer[W any] struct {
	Waiter W
	types.Reply
}

// NewSessions keeps the table of rep, whose module is mod.
func NewSessions[W any](rep *Replica, mod Proposer) *Sessions[W] {
	return &Sessions[W]{rep: rep, mod: mod, waiting: make(map[types.ClientID]waiter[W])}
}

// Enter makes w the waiting entry of req's session, and sends a read to
// Replica.Read or keeps a write for Propose. A dead replica or a module
// that does not claim to lead refuses it, and nothing is kept.
func (s *Sessions[W]) Enter(req types.Request, read bool, w W) Refusal {
	switch {
	case s.rep.err != nil:
		return Dead
	case !s.mod.IsLeader():
		return NotLeader
	}
	s.waiting[req.Client] = waiter[W]{req.SeqNo, w}
	if read {
		s.rep.Read(req.Client, req.SeqNo, req.Op)
	} else {
		s.writes = append(s.writes, req)
	}
	return Taken
}

// Propose submits the writes taken since the last call as one value
// (EncodeBatch), reporting whether there were any.
func (s *Sessions[W]) Propose() bool {
	if len(s.writes) == 0 {
		return false
	}
	s.mod.Submit(EncodeBatch(s.writes))
	clear(s.writes) // each Op is the caller's
	s.writes = s.writes[:0]
	return true
}

// Pump runs Replica.Pump and returns its decisions, each entry a reply
// answered, and the entries it hands back unanswered: the dropped reads',
// or, once the replica is dead (err), every one. answered is valid until
// the next Pump.
func (s *Sessions[W]) Pump() (decided []types.Decision, answered []Answer[W], orphans []W, err error) {
	decided, replies, dropped, err := s.rep.Pump()
	if err != nil {
		for _, c := range det.SortedKeys(s.waiting) {
			orphans = append(orphans, s.waiting[c].w)
		}
		clear(s.waiting)
		return decided, nil, orphans, err
	}
	s.answers = s.answers[:0]
	for _, r := range replies {
		if w, ok := s.take(r); ok {
			s.answers = append(s.answers, Answer[W]{w, r})
		}
	}
	for _, r := range dropped {
		if w, ok := s.take(r); ok {
			orphans = append(orphans, w)
		}
	}
	return decided, s.answers, orphans, nil
}

// take removes the entry r answers, if its session waits for r's seqno.
func (s *Sessions[W]) take(r types.Reply) (W, bool) {
	e, ok := s.waiting[r.Client]
	if ok = ok && e.seqno == r.SeqNo; ok {
		delete(s.waiting, r.Client)
	}
	return e.w, ok
}

// Len is the number of sessions waiting.
func (s *Sessions[W]) Len() int { return len(s.waiting) }
