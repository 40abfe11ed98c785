// Package fastpaxos implements Fast Paxos (Lamport, Distributed
// Computing 2006) as the paper presents it: the cluster grows from 2f+1
// to 3f+1 acceptors so that clients can send proposals *directly* to the
// acceptors, skipping the leader — 2 message delays instead of 3 — while
// quorums stay at 2f+1 = n−f for liveness under f crashes.
//
//	Fast round:   the coordinator's standing "Any" message lets each
//	              acceptor accept the first client value it sees; the
//	              coordinator learns a decision when one value gathers a
//	              quorum of fast-round accepts.
//	Collision:    concurrent clients can split the fast round so no value
//	              reaches quorum ("Collision Happens!" slides). The
//	              coordinator then runs a classic round: it picks the
//	              value with the most fast-round votes — any possibly
//	              chosen value must have majority support within some
//	              quorum, by the three-way intersection property — and
//	              drives ordinary Paxos phase 2.
//
// Profile: partially-synchronous, crash, optimistic, known participants,
// 3f+1 nodes, 1 or 3 phases, O(N).
package fastpaxos

import (
	"fmt"

	"fortyconsensus/internal/core"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:         "fastpaxos",
		Failure:      core.Crash,
		Strategy:     core.Optimistic,
		NodesFor:     func(f int) int { return quorum.Fast{F: f}.Size() },
		NodesFormula: "3f+1",
		QuorumFor:    func(f int) int { return quorum.Fast{F: f}.Threshold() },
		CommitPhases: 1,
		AltPhases:    3,
		Complexity:   core.Linear,
		Decomposition: []core.Phase{
			core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "client→acceptor direct path; collision recovery via classic round",
	})
}

// MsgKind enumerates Fast Paxos message types.
type MsgKind uint8

const (
	MsgPropose  MsgKind = iota + 1 // client value direct to an acceptor
	MsgFastVote                    // acceptor's fast-round accept, to the coordinator
	MsgPrepare                     // classic round phase 1a
	MsgPromise                     // classic round phase 1b
	MsgAccept                      // classic round phase 2a
	MsgAccepted                    // classic round phase 2b
	MsgDecide
)

func (k MsgKind) String() string {
	switch k {
	case MsgPropose:
		return "propose"
	case MsgFastVote:
		return "fast-vote"
	case MsgPrepare:
		return "prepare"
	case MsgPromise:
		return "promise"
	case MsgAccept:
		return "accept"
	case MsgAccepted:
		return "accepted"
	case MsgDecide:
		return "decide"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Message is a Fast Paxos wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	Ballot   types.Ballot
	VotedBal types.Ballot // Promise: ballot of the reported vote
	Val      types.Value
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config tunes the cluster.
type Config struct {
	// F is the crash budget; the cluster holds 3F+1 acceptors with IDs
	// 0..3F, and acceptor 0 doubles as the coordinator.
	F int
	// RecoveryTimeout is how long the coordinator waits for a fast
	// quorum before starting a classic round. Default 10.
	RecoveryTimeout int
}

func (c Config) withDefaults() Config {
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = 10
	}
	return c
}

// N returns the acceptor count.
func (c Config) N() int { return quorum.Fast{F: c.F}.Size() }

// Quorum returns the (fast and classic) quorum size 2f+1.
func (c Config) Quorum() int { return quorum.Fast{F: c.F}.Threshold() }

// fastBallot is the implicit ballot of the standing fast round.
var fastBallot = types.Ballot{}

// Node is one Fast Paxos acceptor; node 0 additionally coordinates.
type Node struct {
	types.Outbox[Message]
	id  types.NodeID
	cfg Config
	now int

	// Acceptor state.
	promised types.Ballot
	votedBal types.Ballot
	votedVal types.Value

	// Coordinator state.
	fastVotes     *quorum.ValueTally
	fastVals      map[string]types.Value
	inRecovery    bool
	ballot        types.Ballot
	promises      int
	bestVoted     types.Ballot
	recoverVal    types.Value
	promiseRep    map[string]int // value-key → vote count among promises
	accepted      *quorum.Tally
	started       bool
	deadline      int
	classicRounds int

	decided  bool
	decision types.Value
}

// NewNode builds acceptor id.
func NewNode(id types.NodeID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	return &Node{
		id:        id,
		cfg:       cfg,
		fastVotes: quorum.NewValueTally(cfg.Quorum()),
		fastVals:  make(map[string]types.Value),
	}
}

// IsCoordinator reports whether this node coordinates recovery.
func (n *Node) IsCoordinator() bool { return n.id == 0 }

// Decided returns the decided value, if any.
func (n *Node) Decided() (types.Value, bool) { return n.decision, n.decided }

// ClassicRounds returns how many recovery rounds the coordinator ran —
// the collision metric for F2.
func (n *Node) ClassicRounds() int { return n.classicRounds }

func (n *Node) send(m Message) {
	m.From = n.id
	n.Post(m)
}

func (n *Node) broadcast(m Message) {
	for i := range n.cfg.N() {
		if m.To = types.NodeID(i); m.To != n.id {
			n.send(m)
		}
	}
}

// Step consumes one delivered message.
func (n *Node) Step(m Message) {
	switch m.Kind {
	case MsgPropose:
		n.onPropose(m)
	case MsgFastVote:
		n.onFastVote(m)
	case MsgPrepare:
		n.onPrepare(m)
	case MsgPromise:
		n.onPromise(m)
	case MsgAccept:
		n.onAccept(m)
	case MsgAccepted:
		n.onAccepted(m)
	case MsgDecide:
		n.learn(m.Val)
	}
}

// onPropose is the fast path: under the standing Any message, accept the
// first value seen (if we haven't voted and haven't promised a classic
// ballot).
func (n *Node) onPropose(m Message) {
	if n.decided {
		return
	}
	if n.votedVal != nil || !n.promised.IsZero() {
		return // already voted fast, or a classic round has begun
	}
	n.votedBal = fastBallot
	n.votedVal = m.Val.Clone()
	if n.IsCoordinator() {
		n.recordFastVote(n.id, n.votedVal)
	} else {
		n.send(Message{Kind: MsgFastVote, To: 0, Val: n.votedVal.Clone()})
	}
	if n.IsCoordinator() && !n.started {
		n.started = true
		n.deadline = n.now + n.cfg.RecoveryTimeout
	}
}

func (n *Node) onFastVote(m Message) {
	if !n.IsCoordinator() || n.decided || n.inRecovery {
		return
	}
	if !n.started {
		n.started = true
		n.deadline = n.now + n.cfg.RecoveryTimeout
	}
	n.recordFastVote(m.From, m.Val)
}

func (n *Node) recordFastVote(from types.NodeID, val types.Value) {
	key := val.String() + "\x00" + fmt.Sprint(len(val))
	n.fastVals[key] = val.Clone()
	if n.fastVotes.Add(from, key) {
		// One value gathered a fast quorum: decided in the fast round.
		n.decideAndBroadcast(n.fastVals[key])
	}
}

func (n *Node) decideAndBroadcast(v types.Value) {
	n.learn(v)
	n.broadcast(Message{Kind: MsgDecide, Val: v.Clone()})
}

// startClassicRound is collision recovery: "Chooses the value with the
// majority quorum if exists" — the coordinator picks the most-voted
// fast-round value and drives classic Paxos for it.
func (n *Node) startClassicRound() {
	n.inRecovery = true
	n.classicRounds++
	n.ballot = n.ballot.Next(n.id)
	n.promises = 0
	n.bestVoted = fastBallot
	n.promiseRep = make(map[string]int)
	n.accepted = quorum.NewTally(n.cfg.Quorum())
	n.deadline = n.now + 4*n.cfg.RecoveryTimeout
	// Phase 1 (prepare) — needed to learn fast-round votes reliably.
	n.onPrepare(Message{Kind: MsgPrepare, From: n.id, To: n.id, Ballot: n.ballot})
	n.broadcast(Message{Kind: MsgPrepare, Ballot: n.ballot})
}

func (n *Node) onPrepare(m Message) {
	if n.promised.Less(m.Ballot) {
		n.promised = m.Ballot
		rep := Message{Kind: MsgPromise, To: m.From, Ballot: m.Ballot, VotedBal: n.votedBal}
		if n.votedVal != nil {
			rep.Val = n.votedVal.Clone()
		}
		if m.From == n.id {
			n.onPromise(rep)
		} else {
			n.send(rep)
		}
	}
}

func (n *Node) onPromise(m Message) {
	if !n.inRecovery || m.Ballot != n.ballot {
		return
	}
	n.promises++
	if m.Val != nil {
		if n.bestVoted.Less(m.VotedBal) || (n.recoverVal == nil && m.VotedBal == fastBallot) {
			// Classic votes from higher ballots dominate outright.
			if !m.VotedBal.IsZero() {
				n.bestVoted = m.VotedBal
				n.recoverVal = m.Val.Clone()
			}
		}
		if m.VotedBal.IsZero() {
			key := m.Val.String() + "\x00" + fmt.Sprint(len(m.Val))
			n.promiseRep[key]++
			n.fastVals[key] = m.Val.Clone()
		}
	}
	if n.promises == n.cfg.Quorum() {
		v := n.recoverVal
		if v == nil {
			// No classic vote reported: take the fast-round plurality.
			best, bestN := "", -1
			for k, c := range n.promiseRep {
				if c > bestN || (c == bestN && k < best) {
					best, bestN = k, c
				}
			}
			if bestN > 0 {
				v = n.fastVals[best]
			}
		}
		if v == nil {
			// Nobody voted at all: nothing can have been chosen; wait
			// for proposals to arrive and retry later.
			n.inRecovery = false
			n.deadline = n.now + n.cfg.RecoveryTimeout
			return
		}
		n.recoverVal = v
		n.broadcast(Message{Kind: MsgAccept, Ballot: n.ballot, Val: v.Clone()})
		n.onAccept(Message{Kind: MsgAccept, From: n.id, To: n.id, Ballot: n.ballot, Val: v.Clone()})
	}
}

func (n *Node) onAccept(m Message) {
	if n.promised.LessEq(m.Ballot) {
		n.promised = m.Ballot
		n.votedBal = m.Ballot
		n.votedVal = m.Val.Clone()
		if m.From == n.id {
			n.onAccepted(Message{Kind: MsgAccepted, From: n.id, Ballot: m.Ballot})
		} else {
			n.send(Message{Kind: MsgAccepted, To: m.From, Ballot: m.Ballot})
		}
	}
}

func (n *Node) onAccepted(m Message) {
	if !n.inRecovery || m.Ballot != n.ballot || n.decided {
		return
	}
	if n.accepted.Add(m.From) {
		n.decideAndBroadcast(n.recoverVal)
	}
}

func (n *Node) learn(v types.Value) {
	if n.decided {
		if !n.decision.Equal(v) {
			panic(fmt.Sprintf("fastpaxos: node %v decided twice: %q vs %q", n.id, n.decision, v))
		}
		return
	}
	n.decided = true
	n.decision = v.Clone()
}

// Tick drives the coordinator's collision timeout.
func (n *Node) Tick() {
	n.now++
	if !n.IsCoordinator() || n.decided || !n.started {
		return
	}
	if n.now >= n.deadline && !n.inRecovery {
		n.startClassicRound()
	} else if n.now >= n.deadline && n.inRecovery {
		// The classic round itself stalled (crashes): retry higher.
		n.startClassicRound()
	}
}
