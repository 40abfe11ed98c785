// Package paxos implements single-decree Paxos exactly as the paper
// presents it: ballots ⟨num, process id⟩, a prepare phase that joins a
// ballot and reports the latest accepted ⟨AcceptNum, AcceptVal⟩, an
// accept phase proposing the leader's value (or the highest-ballot value
// learned), and an asynchronous decision broadcast.
//
// Profile (the paper's fact box): partially-synchronous, crash faults,
// pessimistic, known participants, 2f+1 nodes, 2 phases, O(N) messages.
//
// Liveness follows the slides too: competing proposers can livelock
// (experiment F1); Config.RandomBackoff enables the slide's remedy —
// "randomized delay before restarting".
package paxos

import (
	"fmt"

	"fortyconsensus/internal/core"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:         "paxos",
		Failure:      core.Crash,
		Strategy:     core.Pessimistic,
		NodesFor:     func(f int) int { return quorum.MajorityFor(f).Size() },
		NodesFormula: "2f+1",
		QuorumFor:    func(f int) int { return f + 1 },
		CommitPhases: 2,
		Complexity:   core.Linear,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "ballots ⟨num,pid⟩; phase 1 doubles as leader election + value discovery",
	})
}

// MsgKind enumerates Paxos message types.
type MsgKind uint8

const (
	MsgPrepare  MsgKind = iota + 1
	MsgAck              // phase-1b: join ballot, report AcceptNum/AcceptVal
	MsgNack             // ballot too old; carries the newer ballot for backoff
	MsgAccept           // phase-2a: proposal
	MsgAccepted         // phase-2b: vote
	MsgDecide           // learn broadcast
)

func (k MsgKind) String() string {
	switch k {
	case MsgPrepare:
		return "prepare"
	case MsgAck:
		return "ack"
	case MsgNack:
		return "nack"
	case MsgAccept:
		return "accept"
	case MsgAccepted:
		return "accepted"
	case MsgDecide:
		return "decide"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Message is a Paxos wire message.
type Message struct {
	Kind      MsgKind
	From, To  types.NodeID
	Ballot    types.Ballot
	AcceptNum types.Ballot // in Ack: ballot of the reported accepted value
	Val       types.Value
}

// Kind/Src/Dest accessors for the generic runner.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config tunes a node.
type Config struct {
	// Peers is the full membership, including this node.
	Peers []types.NodeID
	// RetryTicks is the proposer's base timeout before restarting a
	// stalled ballot. Default 20.
	RetryTicks int
	// RandomBackoff adds a random extra delay of up to maxBackoffTicks
	// before restarting — the slides' livelock remedy. Requires Seed.
	RandomBackoff bool
	// Seed seeds the node's private RNG (backoff jitter).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.RetryTicks <= 0 {
		c.RetryTicks = 20
	}
	return c
}

// maxBackoffTicks bounds RandomBackoff's extra delay.
const maxBackoffTicks = 40

type proposerPhase uint8

const (
	idle proposerPhase = iota
	preparing
	accepting
	done
)

// Node is one Paxos process, playing proposer, acceptor, and learner.
// It is a deterministic state machine driven by the runner.
type Node struct {
	types.Outbox[Message]
	id  types.NodeID
	cfg Config
	rng *simnet.RNG
	q   quorum.Majority

	// Acceptor state — the slide's three variables.
	ballotNum types.Ballot
	acceptNum types.Ballot
	acceptVal types.Value

	// Proposer state.
	phase       proposerPhase
	myValue     types.Value // the value this node wants decided
	curBallot   types.Ballot
	prepareAcks *quorum.Tally
	bestAccept  types.Ballot // highest AcceptNum among phase-1 acks
	bestVal     types.Value
	acceptVotes *quorum.Tally
	retryIn     int
	restarts    int // ballots started (livelock metric for F1)

	// Learner state.
	decided  bool
	decision types.Value
}

// New builds a Paxos node.
func New(id types.NodeID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	return &Node{
		id:  id,
		cfg: cfg,
		rng: simnet.NewRNG(cfg.Seed ^ (uint64(id) << 32)),
		q:   quorum.Majority{N: len(cfg.Peers)},
	}
}

// Propose asks the node to get v decided. The node keeps retrying until
// some value (not necessarily v) is decided. The caller yields ownership
// of v (types.Value discipline: immutable after creation).
func (n *Node) Propose(v types.Value) {
	n.myValue = v
	if n.phase == idle {
		n.startBallot()
	}
}

// Decided returns the decided value, if any.
func (n *Node) Decided() (types.Value, bool) { return n.decision, n.decided }

// Restarts returns how many ballots this proposer has started — the
// dueling-proposer livelock metric.
func (n *Node) Restarts() int { return n.restarts }

func (n *Node) startBallot() {
	n.restarts++
	n.curBallot = n.ballotNum.Next(n.id)
	n.phase = preparing
	n.prepareAcks = quorum.NewTally(n.q.Threshold())
	n.bestAccept = types.ZeroBallot
	n.bestVal = nil
	n.acceptVotes = nil
	n.armRetry()
	for _, p := range n.cfg.Peers {
		n.send(Message{Kind: MsgPrepare, To: p, Ballot: n.curBallot})
	}
}

func (n *Node) armRetry() {
	n.retryIn = n.cfg.RetryTicks
	if n.cfg.RandomBackoff {
		n.retryIn += n.rng.Intn(maxBackoffTicks + 1)
	}
}

func (n *Node) send(m Message) {
	m.From = n.id
	n.Post(m)
}

// Step consumes one delivered message.
func (n *Node) Step(m Message) {
	switch m.Kind {
	case MsgPrepare:
		n.onPrepare(m)
	case MsgAck:
		n.onAck(m)
	case MsgNack:
		n.onNack(m)
	case MsgAccept:
		n.onAccept(m)
	case MsgAccepted:
		n.onAccepted(m)
	case MsgDecide:
		n.learn(m.Val)
	}
}

// onPrepare is the slide's cohort phase 1: join any ballot ≥ current and
// report the latest accepted value.
func (n *Node) onPrepare(m Message) {
	if n.ballotNum.LessEq(m.Ballot) {
		n.ballotNum = m.Ballot
		n.send(Message{
			Kind: MsgAck, To: m.From, Ballot: m.Ballot,
			AcceptNum: n.acceptNum, Val: n.acceptVal,
		})
		return
	}
	n.send(Message{Kind: MsgNack, To: m.From, Ballot: n.ballotNum})
}

// onAck collects phase-1b votes; at a majority the proposer moves to
// phase 2 with the highest-ballot accepted value it learned, or its own.
func (n *Node) onAck(m Message) {
	if n.phase != preparing || m.Ballot != n.curBallot {
		return
	}
	if m.Val != nil && n.bestAccept.Less(m.AcceptNum) {
		n.bestAccept = m.AcceptNum
		n.bestVal = m.Val
	}
	if !n.prepareAcks.Add(m.From) {
		return
	}
	val := n.myValue
	if n.bestVal != nil {
		// "The value accepted in the highest ballot might have been
		// decided, I better propose this value."
		val = n.bestVal
	}
	n.phase = accepting
	n.acceptVotes = quorum.NewTally(n.q.Threshold())
	n.armRetry()
	for _, p := range n.cfg.Peers {
		n.send(Message{Kind: MsgAccept, To: p, Ballot: n.curBallot, Val: val})
	}
}

// onNack tells a stale proposer about a newer ballot so its next attempt
// can exceed it.
func (n *Node) onNack(m Message) {
	if n.phase != preparing && n.phase != accepting {
		return
	}
	if n.curBallot.Less(m.Ballot) && n.ballotNum.Less(m.Ballot) {
		n.ballotNum = m.Ballot
	}
}

// onAccept is cohort phase 2: accept unless promised a higher ballot.
func (n *Node) onAccept(m Message) {
	if n.ballotNum.LessEq(m.Ballot) {
		n.ballotNum = m.Ballot
		n.acceptNum = m.Ballot
		n.acceptVal = m.Val
		n.send(Message{Kind: MsgAccepted, To: m.From, Ballot: m.Ballot, Val: m.Val})
		return
	}
	n.send(Message{Kind: MsgNack, To: m.From, Ballot: n.ballotNum})
}

// onAccepted counts phase-2b votes; a majority decides and the decision
// propagates asynchronously to all.
func (n *Node) onAccepted(m Message) {
	if n.phase != accepting || m.Ballot != n.curBallot {
		return
	}
	if !n.acceptVotes.Add(m.From) {
		return
	}
	n.phase = done
	n.learn(m.Val)
	for _, p := range n.cfg.Peers {
		if p != n.id {
			n.send(Message{Kind: MsgDecide, To: p, Val: m.Val})
		}
	}
}

func (n *Node) learn(v types.Value) {
	if n.decided {
		if !n.decision.Equal(v) {
			panic(fmt.Sprintf("paxos: node %v decided twice: %q then %q", n.id, n.decision, v))
		}
		return
	}
	n.decided = true
	n.decision = v
	if n.phase != idle {
		n.phase = done
	}
}

// Tick drives proposer retries: a stalled ballot restarts with a higher
// number after the (possibly randomized) timeout.
func (n *Node) Tick() {
	if n.decided || (n.phase != preparing && n.phase != accepting) {
		return
	}
	n.retryIn--
	if n.retryIn <= 0 {
		n.startBallot()
	}
}
