// Package raft implements the Raft consensus algorithm the paper cites
// as Paxos's understandability-focused equivalent (Ongaro & Ousterhout,
// USENIX ATC 2014): randomized leader election on terms, log replication
// with the Log Matching property enforced by AppendEntries consistency
// checks, and the leader-completeness commit rule (a leader only commits
// entries from its own term by counting replicas, which transitively
// commits earlier entries).
//
// Raft is one of two electors on replog's replication core, Multi-Paxos
// the other (Howard & Mortier, "Paxos vs Raft"): the core appends,
// replicates, commits, compacts and transfers snapshots, and this package
// keeps only what Raft decides for itself — the term, the vote rule that
// elects only an up-to-date candidate (so its log needs no Value
// Discovery), the no-op a new leader commits its term with, and the
// membership a config entry sets when appended (confLog).
//
// Profile: partially-synchronous, crash, pessimistic, known participants,
// 2f+1 nodes, leader-based, O(N) messages per committed entry.
package raft

import (
	"fmt"
	"slices"

	"fortyconsensus/internal/core"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:         "raft",
		Failure:      core.Crash,
		Strategy:     core.Pessimistic,
		NodesFor:     func(f int) int { return quorum.MajorityFor(f).Size() },
		NodesFormula: "2f+1",
		QuorumFor:    func(f int) int { return f + 1 },
		CommitPhases: 1,
		AltPhases:    2,
		Complexity:   core.Linear,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "integrates consensus with log management; election safety via log up-to-date check",
	})
}

// Term is a Raft term number.
type Term uint64

// LogEntry is one replicated log entry; its Term is the entry's term.
type LogEntry = replog.Entry

// MsgKind enumerates Raft message types. From MsgAppend on they are
// replog's replication kinds, in its order.
type MsgKind uint8

const (
	MsgRequestVote MsgKind = iota + 1
	MsgVote
	MsgAppend
	MsgAppendResp
	MsgSnap     // InstallSnapshot: one chunk of an encoded snapshot
	MsgSnapResp // InstallSnapshot response: progress ack or install report
	MsgRead     // ReadIndex probe: is this still the leader's term?
	MsgReadResp // the probe's answer, under the answerer's term
)

func (k MsgKind) String() string {
	switch k {
	case MsgRequestVote:
		return "request-vote"
	case MsgVote:
		return "vote"
	case MsgAppend:
		return "append-entries"
	case MsgAppendResp:
		return "append-resp"
	case MsgSnap:
		return "install-snapshot"
	case MsgSnapResp:
		return "install-snapshot-resp"
	case MsgRead:
		return "read"
	case MsgReadResp:
		return "read-resp"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Message is a Raft wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	Term     Term

	// RequestVote / Vote
	LastLogIndex types.Seq
	LastLogTerm  Term
	Granted      bool

	// AppendEntries / response
	PrevIndex    types.Seq
	PrevTerm     Term
	Entries      []LogEntry
	LeaderCommit types.Seq // on every append; the only way followers learn a commit
	Success      bool
	MatchIndex   types.Seq

	// MsgSnap: the raw chunk bytes at Offset (the snapshot's last index
	// and term ride PrevIndex/PrevTerm).
	Val types.Value

	// InstallSnapshot: chunk byte offset (request: offset of Val;
	// response: next offset the follower wants) and whether the chunk
	// completes the snapshot (request) / the install finished (response).
	// Success on a request asks for an answer even from a follower that
	// already holds the chunk.
	Offset uint32
	Done   bool

	Read uint64 // the leader's newest read round on MsgRead and MsgAppend, echoed in their answers
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Wire is a replication message as a Raft message.
func (n *Node) Wire(m *replog.Msg) Message {
	return Message{
		Kind: MsgKind(m.Kind) + MsgAppend - MsgKind(replog.Append), From: m.From, To: m.To, Term: Term(m.Term),
		PrevIndex: m.PrevIndex, PrevTerm: Term(m.PrevTerm), Entries: m.Entries, LeaderCommit: m.Commit,
		Success: m.Success, MatchIndex: m.Match, Val: m.Val, Offset: m.Offset, Done: m.Done, Read: m.Read,
	}
}

// replicated is a Raft message of a replication kind as the core takes
// it: the same entries, which the core copies what it keeps of.
func replicated(m *Message) replog.Msg {
	return replog.Msg{
		Kind: replog.Kind(m.Kind-MsgAppend) + replog.Append, From: m.From, To: m.To, Term: uint64(m.Term),
		PrevIndex: m.PrevIndex, PrevTerm: uint64(m.PrevTerm), Entries: m.Entries, Commit: m.LeaderCommit,
		Success: m.Success, Match: m.MatchIndex, Val: m.Val, Offset: m.Offset, Done: m.Done, Read: m.Read,
	}
}

// Config tunes a node.
type Config struct {
	Peers []types.NodeID
	replog.ElectorConfig
	// Passive starts the node as a non-voting joiner: it never campaigns
	// until it first hears from a leader. A fresh node added to a running
	// cluster must start passive or its election timer — fired before the
	// leader learns it exists — would disrupt the incumbent with a
	// higher-term RequestVote.
	Passive bool
	// Seed seeds the node's private RNG.
	Seed uint64
}

type role uint8

const (
	follower role = iota
	candidate
	leader
)

// Node is one Raft replica.
type Node struct {
	replog.Core[Message]

	id  types.NodeID
	cfg Config
	rng *simnet.RNG
	q   quorum.Majority

	role     role
	term     Term
	votedFor types.NodeID // -1 = none this term
	lead     types.NodeID // -1 = unknown

	// Dynamic membership. members is the current (possibly uncommitted)
	// config, sorted; confLog remembers the member set in force *before*
	// each uncommitted config entry so a conflict truncation can revert.
	members []types.NodeID
	confLog []confRecord
	// selfRemovedAt is the uncommitted log index of an entry removing
	// this node, or 0; a leader steps down once it commits.
	selfRemovedAt types.Seq
	passive       bool

	// Candidate state.
	votes *quorum.Tally

	electionIn int
	elections  int
}

// New builds a Raft replica.
func New(id types.NodeID, cfg Config) *Node {
	cfg.ElectorConfig = replog.DefaultElector(cfg.ElectorConfig)
	n := &Node{
		id:       id,
		cfg:      cfg,
		rng:      simnet.NewRNG(cfg.Seed ^ (uint64(id)+7)<<20),
		q:        quorum.Majority{N: len(cfg.Peers)},
		votedFor: -1,
		lead:     -1,
		passive:  cfg.Passive,
	}
	n.members = append([]types.NodeID(nil), cfg.Peers...)
	slices.Sort(n.members)
	n.Init(id, n, cfg.ElectorConfig, n.members, false)
	n.resetElectionTimer()
	return n
}

// resetElectionTimer arms ElectionTimeoutTicks plus a seeded jitter in
// [0, ElectionTimeoutTicks), or at term 0 one tick plus a jitter in
// [0, HeartbeatTicks). The base keeps a follower from timing out between
// a live leader's heartbeats, and a node at term 0 has never heard one;
// its jitter only has to order the fresh candidates, so that the first
// one's RequestVote lands before the others fire, and one heartbeat
// interval is the round trip the config promises. A node restored from
// its journal holds a term and waits the full base (its mapping's Rearm).
func (n *Node) resetElectionTimer() {
	if n.term == 0 {
		n.electionIn = 1 + n.rng.Intn(n.cfg.HeartbeatTicks)
		return
	}
	n.electionIn = n.cfg.ElectionTimeoutTicks + n.rng.Intn(n.cfg.ElectionTimeoutTicks)
}

func (n *Node) lastTerm() Term { return Term(n.At(n.LastIndex()).Term) }

func (n *Node) send(m Message) {
	m.From = n.id
	m.Term = n.term
	n.Post(m)
}

// IsLeader reports whether this node currently leads.
func (n *Node) IsLeader() bool { return n.role == leader }

// Leader returns the believed leader, or -1.
func (n *Node) Leader() types.NodeID { return n.lead }

// Term is the node's term: what the core stamps its messages with.
func (n *Node) Term() uint64 { return uint64(n.term) }

// Quorum is a majority of the current config, which governs every index.
func (n *Node) Quorum(types.Seq) ([]types.NodeID, int, types.Seq) {
	return n.members, n.q.Threshold(), replog.Forever
}

// Heard is an append, chunk or probe of this term from its leader.
func (n *Node) Heard(lead types.NodeID) { n.becomeFollower(n.term, lead) }

// Submit appends a value to the log if this node leads, and otherwise
// drops it: routing a request to the leader is the host's job (Leader
// names the one this node believes in). The caller yields ownership:
// per the types.Value discipline the payload is immutable from here on,
// so it is logged by reference. A membership change goes to every
// follower at once.
func (n *Node) Submit(v types.Value) {
	if n.role != leader {
		return
	}
	conf := snapshot.IsConfChange(v)
	if conf && !n.confAllowed(v) {
		return // invalid or overlapping membership change: drop
	}
	n.Propose(v, conf)
}

func (n *Node) becomeFollower(term Term, lead types.NodeID) {
	if term > n.term {
		n.term = term
		n.votedFor = -1
	}
	n.role = follower
	n.lead = lead
	n.votes = nil
	n.Unlead()
	if lead >= 0 {
		n.passive = false // heard from a live leader: full citizen now
	}
	n.resetElectionTimer()
}

func (n *Node) campaign() {
	n.elections++
	n.role = candidate
	n.term++
	n.votedFor = n.id
	n.lead = -1
	n.votes = quorum.NewTally(n.q.Threshold())
	n.votes.Add(n.id)
	n.resetElectionTimer()
	for _, p := range n.members {
		if p == n.id {
			continue
		}
		n.send(Message{
			Kind: MsgRequestVote, To: p,
			LastLogIndex: n.LastIndex(), LastLogTerm: n.lastTerm(),
		})
	}
	if n.votes.Reached() { // single-node cluster
		n.becomeLeader()
	}
}

// becomeLeader leads with a no-op entry of the new term, which lets the
// leader commit immediately (the classic "commit a current-term entry
// first" rule).
func (n *Node) becomeLeader() {
	n.role = leader
	n.lead = n.id
	n.Lead([]LogEntry{{Term: uint64(n.term)}}, nil)
}

// Step consumes one delivered message.
func (n *Node) Step(m Message) {
	if m.Term > n.term {
		// A follower's countdown runs on: only its leader's message or a
		// vote it grants re-arms it (Raft's Figure 2), so a lagging node
		// that campaigns and cannot win does not hold off the nodes that
		// can. A fresh node's short timer ends with its first term.
		running, keep := n.electionIn, n.role == follower && n.term > 0
		n.becomeFollower(m.Term, -1)
		if keep {
			n.electionIn = running
		}
	}
	switch m.Kind {
	case MsgRequestVote:
		n.onRequestVote(m)
	case MsgVote:
		n.onVote(m)
	case MsgAppend, MsgAppendResp, MsgSnap, MsgSnapResp, MsgRead, MsgReadResp:
		n.Replicate(replicated(&m))
	}
}

func (n *Node) onRequestVote(m Message) {
	grant := false
	if m.Term >= n.term && (n.votedFor == -1 || n.votedFor == m.From) {
		// Election safety: only vote for candidates whose log is at
		// least as up-to-date as ours.
		upToDate := m.LastLogTerm > n.lastTerm() ||
			(m.LastLogTerm == n.lastTerm() && m.LastLogIndex >= n.LastIndex())
		if upToDate {
			grant = true
			n.votedFor = m.From
			n.resetElectionTimer()
		}
	}
	n.send(Message{Kind: MsgVote, To: m.From, Granted: grant})
}

func (n *Node) onVote(m Message) {
	if n.role != candidate || m.Term != n.term || !m.Granted {
		return
	}
	if !n.isMember(m.From) {
		return // a vote from outside the current config must not count
	}
	if n.votes.Add(m.From) {
		n.becomeLeader()
	}
}

// Committed steps a leader down once the entry removing it commits, so
// the remaining members elect a leader from the new config.
func (n *Node) Committed(i types.Seq, _ types.Value) {
	if n.selfRemovedAt > 0 && i >= n.selfRemovedAt && n.role == leader {
		n.becomeFollower(n.term, -1)
	}
}

// Tick advances timers.
func (n *Node) Tick() {
	n.TickHold()
	switch n.role {
	case leader:
		n.Beat()
	case follower, candidate:
		n.electionIn--
		if n.electionIn <= 0 {
			if n.passive || !n.isMember(n.id) {
				// Joiners and removed nodes never campaign; a removed
				// node's stale RequestVote would disrupt the live config.
				n.resetElectionTimer()
				return
			}
			n.campaign()
		}
	}
}
