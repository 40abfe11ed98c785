// Package raft implements the Raft consensus algorithm the paper cites
// as Paxos's understandability-focused equivalent (Ongaro & Ousterhout,
// USENIX ATC 2014): randomized leader election on terms, log replication
// with the Log Matching property enforced by AppendEntries consistency
// checks, and the leader-completeness commit rule (a leader only commits
// entries from its own term by counting replicas, which transitively
// commits earlier entries).
//
// A commit is not a message: the leader's commit index rides whichever
// AppendEntries leaves next (Message.LeaderCommit) and, when no entries
// are waiting, the heartbeat. Phase 2 goes to a quorum: a new entry
// leaves at once only for the Threshold()−1 followers that have
// acknowledged most, and every other follower is sent what it lacks once
// a tick — one committed entry costs an append and an ack per picked
// follower, as Multi-Paxos' accept/accepted.
//
// Profile: partially-synchronous, crash, pessimistic, known participants,
// 2f+1 nodes, leader-based, O(N) messages per committed entry.
package raft

import (
	"fmt"
	"slices"

	"fortyconsensus/internal/core"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/readindex"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:                 "raft",
		Synchrony:            core.PartiallySynchronous,
		Failure:              core.Crash,
		Strategy:             core.Pessimistic,
		Awareness:            core.KnownParticipants,
		NodesFor:             func(f int) int { return quorum.MajorityFor(f).Size() },
		NodesFormula:         "2f+1",
		QuorumFor:            func(f int) int { return f + 1 },
		CommitPhases:         1,
		AltPhases:            2,
		Complexity:           core.Linear,
		ViewChangeComplexity: core.Linear,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "integrates consensus with log management; election safety via log up-to-date check",
	})
}

// Term is a Raft term number.
type Term uint64

// LogEntry is one replicated log entry.
type LogEntry struct {
	Term Term
	Val  types.Value
}

// MsgKind enumerates Raft message types.
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
	// already holds the chunk (raftsnap.go).
	Offset uint32
	Done   bool

	Read uint64 // the leader's newest read round on MsgRead and MsgAppend, echoed in their answers (read.go)
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config tunes a node.
type Config struct {
	Peers []types.NodeID
	// HeartbeatTicks is the leader's AppendEntries interval. Default 5.
	HeartbeatTicks int
	// ElectionTimeoutTicks is the base follower timeout; each reset adds
	// seeded jitter in [0, ElectionTimeoutTicks). A node that has seen no
	// term arms only a jitter in [1, HeartbeatTicks] (see
	// resetElectionTimer). Default 30.
	ElectionTimeoutTicks int
	// Passive starts the node as a non-voting joiner: it never campaigns
	// until it first hears from a leader. A fresh node added to a running
	// cluster must start passive or its election timer — fired before the
	// leader learns it exists — would disrupt the incumbent with a
	// higher-term RequestVote.
	Passive bool
	// Seed seeds the node's private RNG.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.HeartbeatTicks <= 0 {
		c.HeartbeatTicks = 5
	}
	if c.ElectionTimeoutTicks <= 0 {
		c.ElectionTimeoutTicks = 30
	}
	return c
}

// maxBatch bounds the entries one AppendEntries carries, and
// snapshot.BatchBytes their values.
const maxBatch = 64

type role uint8

const (
	follower role = iota
	candidate
	leader
)

// Node is one Raft replica.
type Node struct {
	id  types.NodeID
	cfg Config
	rng *simnet.RNG
	q   quorum.Majority

	role     role
	term     Term
	votedFor types.NodeID // -1 = none this term
	lead     types.NodeID // -1 = unknown

	// log[0] is a sentinel holding snapTerm; real entries start at global
	// index snapIndex+1. Before any compaction snapIndex is 0 and global
	// indices equal slice positions.
	log         []LogEntry
	unsynced    types.Seq // lowest index changed since the last Persister.Sync; 0 = none
	commitIndex types.Seq
	applied     types.Seq
	decisions   []types.Decision

	// Compaction state: everything at or below snapIndex lives only in
	// the encoded snapshot snapData.
	snapIndex types.Seq
	snapTerm  Term
	snapData  []byte

	// Dynamic membership. members is the current (possibly uncommitted)
	// config, sorted; confLog remembers the member set in force *before*
	// each uncommitted config entry so a conflict truncation can revert.
	members []types.NodeID
	confLog []confRecord
	// selfRemovedAt is the uncommitted log index of an entry removing
	// this node, or 0; a leader steps down once it commits.
	selfRemovedAt types.Seq
	passive       bool

	recv snapshot.Receiver // an incoming snapshot transfer (follower side)
	// holdCompact counts down the ticks Compact still refuses: it is
	// reset whenever a follower's answer draws the next snapshot chunk.
	holdCompact int
	// installed surfaces the most recently installed snapshot so the
	// host can restore its executor/state machine; drained by
	// TakeInstalledSnapshot.
	installed *snapshot.Snapshot

	// Candidate state.
	votes *quorum.Tally

	// Leader state: replication progress per follower (never for the
	// leader itself, whose match is its lastIndex). nil unless leading.
	prs map[types.NodeID]*progress

	electionIn int
	hbIn       int
	elections  int

	matchScratch []types.Seq    // maybeCommit scratch, reused across checks
	picks        []types.NodeID // Submit's scratch: whom a new entry goes to

	reads     readindex.Tracker // read.go
	readFloor types.Seq         // this term's no-op: no read confirms before it commits

	out, spare []Message // the outbox and what the last Drain handed out: swapped, never regrown
}

// New builds a Raft replica.
func New(id types.NodeID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		id:       id,
		cfg:      cfg,
		rng:      simnet.NewRNG(cfg.Seed ^ (uint64(id)+7)<<20),
		q:        quorum.Majority{N: len(cfg.Peers)},
		votedFor: -1,
		lead:     -1,
		log:      []LogEntry{{}}, // sentinel at index 0
		passive:  cfg.Passive,
	}
	n.members = append([]types.NodeID(nil), cfg.Peers...)
	slices.Sort(n.members)
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
// its journal holds a term and waits the full base (Persister.Restore).
func (n *Node) resetElectionTimer() {
	if n.term == 0 {
		n.electionIn = 1 + n.rng.Intn(n.cfg.HeartbeatTicks)
		return
	}
	n.electionIn = n.cfg.ElectionTimeoutTicks + n.rng.Intn(n.cfg.ElectionTimeoutTicks)
}

func (n *Node) lastIndex() types.Seq { return n.snapIndex + types.Seq(len(n.log)-1) }
func (n *Node) lastTerm() Term       { return n.log[len(n.log)-1].Term }

// at maps a global log index to its entry. Only indices in
// [snapIndex, lastIndex] are addressable; at(snapIndex) is the sentinel
// carrying the snapshot's term.
func (n *Node) at(i types.Seq) LogEntry { return n.log[i-n.snapIndex] }

func (n *Node) send(m Message) {
	m.From = n.id
	m.Term = n.term
	n.out = append(n.out, m)
}

// IsLeader reports whether this node currently leads.
func (n *Node) IsLeader() bool { return n.role == leader }

// Leader returns the believed leader, or -1.
func (n *Node) Leader() types.NodeID { return n.lead }

// CommitFrontier returns the commit index.
func (n *Node) CommitFrontier() types.Seq { return n.commitIndex }

// TakeDecisions drains newly committed decisions in order.
func (n *Node) TakeDecisions() []types.Decision {
	d := n.decisions
	n.decisions = nil
	return d
}

// Submit appends a value to the log if this node leads, and otherwise
// drops it: routing a request to the leader is the host's job (Leader
// names the one this node believes in). The caller yields ownership:
// per the types.Value discipline the payload is immutable from here on,
// so it is logged by reference.
func (n *Node) Submit(v types.Value) {
	if n.role != leader {
		return
	}
	conf := snapshot.IsConfChange(v)
	if conf && !n.confAllowed(v) {
		return // invalid or overlapping membership change: drop
	}
	n.appendEntry(LogEntry{Term: n.term, Val: v})
	n.maybeCommit() // a single-node cluster commits immediately
	to := n.members // a membership change goes to every follower at once
	if !conf {
		to = quorum.Pick(n.picks, n.members, n.id, n.q.Threshold(), func(p types.NodeID) types.Seq { return n.prs[p].match })
		n.picks = to
	}
	for _, p := range to {
		if p != n.id {
			n.replicateTo(p)
		}
	}
}

// appendEntry appends one entry at lastIndex+1, consuming a membership
// change immediately if the value is one (the single-server rule: a
// config entry takes effect when appended, not when committed).
func (n *Node) appendEntry(e LogEntry) {
	n.log = append(n.log, e)
	n.touch(n.lastIndex())
	if snapshot.IsConfChange(e.Val) {
		if cc, err := snapshot.DecodeConfChange(e.Val); err == nil {
			n.applyConf(cc, n.lastIndex())
		}
	}
}

// touch records that the log changed at index i, for Persister.Sync.
func (n *Node) touch(i types.Seq) {
	if n.unsynced == 0 || i < n.unsynced {
		n.unsynced = i
	}
}

func (n *Node) becomeFollower(term Term, lead types.NodeID) {
	if term > n.term {
		n.term = term
		n.votedFor = -1
	}
	n.role = follower
	n.lead = lead
	n.votes = nil
	n.prs = nil
	n.reads.Reset()
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
			LastLogIndex: n.lastIndex(), LastLogTerm: n.lastTerm(),
		})
	}
	if n.votes.Reached() { // single-node cluster
		n.becomeLeader()
	}
}

func (n *Node) becomeLeader() {
	n.role = leader
	n.lead = n.id
	n.prs = make(map[types.NodeID]*progress, len(n.members))
	for _, p := range n.members {
		if p != n.id {
			n.prs[p] = &progress{next: n.lastIndex() + 1}
		}
	}
	// A no-op entry from the new term lets the leader commit immediately
	// (the classic "commit a current-term entry first" rule).
	n.appendEntry(LogEntry{Term: n.term})
	n.readFloor = n.lastIndex()
	n.maybeCommit() // a single-node cluster commits immediately
	n.hbIn = n.cfg.HeartbeatTicks
	n.pass(true) // announce the term: the first probe of every follower
}

// progressState says how the leader is feeding one follower.
type progressState uint8

const (
	// stateProbe: the leader does not know where the follower's log
	// ends. One append starting at next is outstanding and next stays
	// put; only its ack, its reject or the heartbeat sends again.
	stateProbe progressState = iota
	// stateReplicate: the follower's log matches the leader's through
	// match. Sends are optimistic: next moves past whatever leaves, so
	// every entry leaves once.
	stateReplicate
	// stateSnapshot: the entries the follower needs are compacted away.
	// One chunk at snapOff is outstanding; only its ack, its nack or the
	// heartbeat sends again.
	stateSnapshot
)

// progress is the leader's record of one follower (etcd-raft's
// Progress, minus the in-flight window: maxBatch and the acks pace
// catch-up). The zero state is a probe.
type progress struct {
	state    progressState
	match    types.Seq // highest index known to be in the follower's log
	next     types.Seq // first index not sent yet (the probe's first index while probing)
	stale    types.Seq // next at the previous tick: what lies below it had a whole tick to be acknowledged
	told     types.Seq // 1 + the LeaderCommit of the last append this heartbeat interval; 0 = none sent
	behind   bool      // the last append stopped short of the log's end: its ack sends the next
	snapOff  int       // offset of the outstanding snapshot chunk
	snapSeen int       // snapOff at the last heartbeat
}

// replicateTo sends p what it has not been sent, if it is replicating and
// there is any: a commit advance alone is no reason (LeaderCommit rides
// the next append, or the heartbeat).
func (n *Node) replicateTo(p types.NodeID) {
	// nil: not leading any more — the commit that brought us here was of
	// our own removal, and a node that has stepped down sends no appends.
	if pr := n.prs[p]; pr != nil && pr.state == stateReplicate && pr.next <= n.lastIndex() {
		n.sendNext(p, pr)
	}
}

// pass, every tick, sends each replicating follower one batch of what it
// lacks, so a stalled pick delays a commit by a tick at most. On a beat
// it is the heartbeat: what is unacknowledged since before the previous
// tick (lost) is rewound, a probe or chunk repeated, and a follower no
// append this interval told the commit index gets an empty one.
func (n *Node) pass(beat bool) {
	for _, p := range n.members {
		if p == n.id {
			continue
		}
		pr := n.prs[p]
		if beat && pr.state == stateReplicate && pr.match+1 < pr.stale {
			pr.next = pr.match + 1
		}
		pr.stale = pr.next
		switch {
		case pr.state == stateSnapshot:
			if beat {
				// A transfer that stood still for a whole interval lost a chunk
				// or the answer to it: the resend asks for an answer.
				n.sendSnapChunk(p, pr.snapOff, pr.snapOff == pr.snapSeen)
				pr.snapSeen = pr.snapOff
			}
		case pr.state == stateReplicate && pr.next <= n.lastIndex(),
			beat && (pr.state == stateProbe || pr.told != n.commitIndex+1):
			n.sendNext(p, pr)
		}
		if beat {
			pr.told = 0
		}
	}
}

// sendNext sends p one frame unconditionally: the outstanding snapshot
// chunk when the entries it needs are compacted away, else an append
// carrying entries [next, next+maxBatch) — none if next is past the log,
// which is the heartbeat.
func (n *Node) sendNext(p types.NodeID, pr *progress) {
	if pr.state != stateSnapshot && pr.next <= n.snapIndex {
		pr.state, pr.snapOff, pr.behind = stateSnapshot, 0, true
	}
	if pr.state == stateSnapshot {
		n.sendSnapChunk(p, pr.snapOff, false)
		return
	}
	prev := pr.next - 1
	hi := prev
	for size := 0; hi < n.lastIndex() && hi-prev < maxBatch && size < snapshot.BatchBytes; {
		hi++
		size += len(n.at(hi).Val)
	}
	var batch []LogEntry
	if hi >= pr.next {
		// Exact-size header copy: in-flight messages must not alias the
		// log's backing array (a later truncate-and-append would rewrite
		// them), but the Values inside are immutable and shared.
		batch = make([]LogEntry, hi-prev)
		copy(batch, n.log[pr.next-n.snapIndex:hi-n.snapIndex+1])
	}
	n.send(Message{
		Kind: MsgAppend, To: p,
		PrevIndex: prev, PrevTerm: n.at(prev).Term,
		Entries: batch, LeaderCommit: n.commitIndex, Read: n.reads.Round(),
	})
	pr.told, pr.behind = n.commitIndex+1, hi < n.lastIndex()
	if pr.state == stateReplicate {
		pr.next = hi + 1
	}
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
	case MsgAppend:
		n.onAppend(m)
	case MsgAppendResp:
		n.onAppendResp(m)
	case MsgSnap:
		n.onSnap(m)
	case MsgSnapResp:
		n.onSnapResp(m)
	case MsgRead:
		n.onRead(m)
	case MsgReadResp:
		if n.role == leader && m.Term == n.term {
			n.reads.Answer(m.From, m.Read)
		}
	}
}

func (n *Node) onRequestVote(m Message) {
	grant := false
	if m.Term >= n.term && (n.votedFor == -1 || n.votedFor == m.From) {
		// Election safety: only vote for candidates whose log is at
		// least as up-to-date as ours.
		upToDate := m.LastLogTerm > n.lastTerm() ||
			(m.LastLogTerm == n.lastTerm() && m.LastLogIndex >= n.lastIndex())
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

func (n *Node) onAppend(m Message) {
	if m.Term < n.term {
		n.send(Message{Kind: MsgAppendResp, To: m.From, Success: false, MatchIndex: 0, Read: m.Read})
		return
	}
	n.becomeFollower(m.Term, m.From)
	entries, prevIndex, prevTerm := m.Entries, m.PrevIndex, m.PrevTerm
	if prevIndex < n.snapIndex {
		// The message starts below our snapshot. Everything through
		// snapIndex is committed state we already hold, so trim the prefix
		// and re-anchor the consistency check at the snapshot boundary.
		drop := n.snapIndex - prevIndex
		if types.Seq(len(entries)) <= drop {
			n.send(Message{Kind: MsgAppendResp, To: m.From, Success: true, MatchIndex: n.snapIndex, Read: m.Read})
			return
		}
		entries = entries[drop:]
		prevIndex, prevTerm = n.snapIndex, n.snapTerm
	}
	// Log Matching check. The reject echoes the PrevIndex it refused, so
	// the leader can tell it from rejects of frames it has since resent,
	// and hints where to resume: our last index if the gap is past our
	// log, else our commit index (which surely matches the leader's log).
	if prevIndex > n.lastIndex() {
		n.send(Message{Kind: MsgAppendResp, To: m.From, PrevIndex: m.PrevIndex, MatchIndex: n.lastIndex(), Read: m.Read})
		return
	}
	if n.at(prevIndex).Term != prevTerm {
		n.send(Message{Kind: MsgAppendResp, To: m.From, PrevIndex: m.PrevIndex, MatchIndex: n.commitIndex, Read: m.Read})
		return
	}
	// Append, truncating conflicts.
	idx := prevIndex
	for i, e := range entries {
		idx = prevIndex + types.Seq(i) + 1
		if idx <= n.lastIndex() {
			if n.at(idx).Term == e.Term {
				continue
			}
			if idx <= n.commitIndex {
				panic(fmt.Sprintf("raft: node %v truncating committed index %d", n.id, idx))
			}
			n.truncateFrom(idx)
		}
		n.appendEntry(e) // header copied by value, Value shared
	}
	match := prevIndex + types.Seq(len(entries))
	if m.LeaderCommit > n.commitIndex {
		upTo := m.LeaderCommit
		if match < upTo {
			upTo = match
		}
		n.advanceCommit(upTo)
	}
	if len(m.Entries) == 0 {
		// A matched empty append (the heartbeat) tells the leader nothing
		// it does not know: no answer, as Multi-Paxos does not answer a
		// heartbeat it has nothing to ask about.
		return
	}
	n.send(Message{Kind: MsgAppendResp, To: m.From, Success: true, MatchIndex: match, Read: m.Read})
}

func (n *Node) onAppendResp(m Message) {
	if n.role != leader || m.Term != n.term {
		return
	}
	n.reads.Answer(m.From, m.Read)
	pr := n.prs[m.From]
	if pr == nil {
		return // not, or no longer, in the config
	}
	if m.Success {
		n.onMatched(m.From, pr, m.MatchIndex)
		return
	}
	// A reject names the PrevIndex it refused. Only the first reject of
	// a frame still believed delivered counts; rejects of the frames
	// that were in flight behind it, and duplicates, change nothing.
	switch pr.state {
	case stateProbe:
		if m.PrevIndex != pr.next-1 {
			return
		}
	case stateReplicate:
		if m.PrevIndex <= pr.match {
			return
		}
	case stateSnapshot:
		return
	}
	pr.next = m.PrevIndex
	if hint := m.MatchIndex + 1; hint < pr.next {
		pr.next = hint
	}
	if pr.next <= pr.match {
		pr.next = pr.match + 1
	}
	pr.state = stateProbe
	n.sendNext(m.From, pr)
}

// onMatched records that p's log is known to match through idx, which
// ends a probe whose first index it reaches, and carries on from there
// if the last append stopped short of the log's end (catch-up).
func (n *Node) onMatched(p types.NodeID, pr *progress, idx types.Seq) {
	if idx > pr.match {
		pr.match = idx
	}
	if pr.next <= pr.match {
		pr.next = pr.match + 1
	}
	if pr.state == stateProbe && pr.next == pr.match+1 {
		pr.state = stateReplicate
	}
	n.maybeCommit()
	if pr.behind {
		n.replicateTo(p)
	}
}

// maybeCommit advances the commit index to the highest current-term
// index replicated on a majority. The match-index scratch lives on the
// node and the sort is in place, so the commit check allocates nothing.
func (n *Node) maybeCommit() {
	if cap(n.matchScratch) < len(n.members) {
		n.matchScratch = make([]types.Seq, 0, len(n.members))
	}
	matches := n.matchScratch[:0]
	for _, p := range n.members {
		if p == n.id {
			matches = append(matches, n.lastIndex())
		} else {
			matches = append(matches, n.prs[p].match)
		}
	}
	// Insertion sort, descending: clusters are small and sort.Slice's
	// closure would allocate on every commit check.
	for i := 1; i < len(matches); i++ {
		for j := i; j > 0 && matches[j] > matches[j-1]; j-- {
			matches[j], matches[j-1] = matches[j-1], matches[j]
		}
	}
	candidate := matches[n.q.Threshold()-1]
	if candidate > n.commitIndex && candidate > n.snapIndex && n.at(candidate).Term == n.term {
		n.advanceCommit(candidate)
	}
}

func (n *Node) advanceCommit(to types.Seq) {
	if to > n.lastIndex() {
		to = n.lastIndex()
	}
	if to <= n.commitIndex {
		return
	}
	n.commitIndex = to
	for n.applied < n.commitIndex {
		n.applied++
		n.decisions = append(n.decisions, types.Decision{Slot: n.applied, Val: n.at(n.applied).Val})
	}
	if n.selfRemovedAt > 0 && n.commitIndex >= n.selfRemovedAt && n.role == leader {
		// The entry removing this node is committed: step down so the
		// remaining members elect a leader from the new config.
		n.becomeFollower(n.term, -1)
	}
}

// Tick advances timers.
func (n *Node) Tick() {
	n.holdCompact = max(n.holdCompact-1, 0)
	switch n.role {
	case leader:
		n.hbIn--
		beat := n.hbIn <= 0
		if beat {
			n.hbIn = n.cfg.HeartbeatTicks
		}
		n.pass(beat)
		n.reask(beat)
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

// Drain returns pending outbound messages. The slice is valid until the
// next Drain, which reuses it: a caller that keeps a message past that
// copies it (the runner and the live host send each one on at once).
func (n *Node) Drain() []Message {
	out := n.out
	clear(n.spare) // what the last Drain returned is void now: let it go
	n.out, n.spare = n.spare[:0], out
	return out
}
