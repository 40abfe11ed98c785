// Package multipaxos implements Multi-Paxos as the paper presents it: a
// separate Basic Paxos instance per log slot, with the optimization that
// phase 1 runs "only when the leader changes" (the slides' view-change /
// recovery mode) while the stable leader drives phase 2 per slot in
// normal mode.
//
// The paper's three stages map directly: Leader Election (phase 1 over
// all slots at once), Replication (phase 2, Accept/Accepted per slot),
// and Decision — asynchronous, and not a message of its own: the leader
// decides a slot when its tally is met and tells nobody; its commit
// frontier rides the next Accept, or the heartbeat when there is none,
// and an acceptor learns from it the slots it accepted under that same
// ballot (see learnThrough).
//
// Flexible Paxos is the same node with Config.Quorums set: phase 1 waits
// for Q1 votes and phase 2 for Q2 instead of a majority each, and
// nothing else — message flow, catch-up, compaction — differs.
//
// Profile: partially-synchronous, crash, pessimistic, known, 2f+1 nodes,
// 2 phases in steady state, O(N) messages per decision.
package multipaxos

import (
	"fmt"
	"slices"

	"fortyconsensus/internal/core"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/readindex"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

func init() {
	p := core.Profile{
		Name:                 "multipaxos",
		Synchrony:            core.PartiallySynchronous,
		Failure:              core.Crash,
		Strategy:             core.Pessimistic,
		Awareness:            core.KnownParticipants,
		NodesFor:             func(f int) int { return quorum.MajorityFor(f).Size() },
		NodesFormula:         "2f+1",
		QuorumFor:            func(f int) int { return f + 1 },
		CommitPhases:         1, // steady state: Accept/Accepted round trip
		AltPhases:            2, // with leader election
		Complexity:           core.Linear,
		ViewChangeComplexity: core.Linear,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "phase 1 amortized over the log; heartbeat-based leader lease",
	}
	core.Register(p)
	// Flexible Paxos is this package with Config.Quorums set: the same
	// flow, f bounded by min(N−Q1, N−Q2).
	p.Name = "flexpaxos"
	p.NodesFormula = "2f+1 (Q1+Q2 > N)"
	p.Notes = "decoupled election/replication quorums; smaller Q2 ⇒ cheaper commits"
	core.Register(p)
}

// MsgKind enumerates Multi-Paxos message types.
type MsgKind uint8

const (
	MsgPrepare MsgKind = iota + 1
	MsgAck
	MsgNack
	MsgAccept
	MsgAccepted
	MsgCommit
	MsgHeartbeat
	MsgForward  // request forwarded to the leader
	MsgCatchup  // follower asks for committed slots it is missing
	MsgState    // state transfer: snapshot replacing compacted slots
	MsgRead     // read probe: is this still the leader's ballot?
	MsgReadResp // the probe's answer from an acceptor that holds it
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
	case MsgCommit:
		return "commit"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgForward:
		return "forward"
	case MsgCatchup:
		return "catchup"
	case MsgState:
		return "state-transfer"
	case MsgRead:
		return "read"
	case MsgReadResp:
		return "read-resp"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Entry is one accepted log slot reported during recovery.
type Entry struct {
	Slot      types.Seq
	AcceptNum types.Ballot
	Val       types.Value
}

// Message is a Multi-Paxos wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	Ballot   types.Ballot
	Slot     types.Seq
	Val      types.Value
	Entries  []Entry   // Ack: the entries accepted above Commit; Commit: the catch-up batch
	Commit   types.Seq // Accept, Heartbeat: leader's commit frontier; Ack, State: sender's
	Read     uint64    // Read, Accept: the leader's newest read round, echoed by ReadResp, Accepted (read.go)
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config tunes a node.
type Config struct {
	Peers []types.NodeID
	// HeartbeatTicks is the leader's heartbeat interval. Default 5.
	HeartbeatTicks int
	// ElectionTimeoutTicks is the base follower timeout before running
	// for leadership; each node adds seeded jitter. Default 30.
	ElectionTimeoutTicks int
	// Passive starts the node as a non-campaigning joiner until it first
	// hears from a leader (see raft.Config.Passive for the rationale).
	Passive bool
	// Seed seeds the node's private RNG.
	Seed uint64
	// Quorums, when set, makes this Flexible Paxos (Howard, Malkhi &
	// Spiegelman, OPODIS 2016): phase 1 tallies to Q1 and phase 2 to Q2
	// instead of both to a majority. Only election and replication
	// quorums must intersect (Q1+Q2 > N), so replication quorums shrink
	// as election quorums grow, "with no changes to the Paxos message
	// flow". The zero value is a majority of each slot's member set.
	// The pair is sized for the bootstrap Peers: New panics on a pair
	// that is invalid or whose N is not len(Peers), and a node with one
	// refuses membership changes (see confAllowed).
	Quorums quorum.Flexible
}

// flexible reports whether a Flexible pair replaces the majority.
func (c Config) flexible() bool { return c.Quorums != (quorum.Flexible{}) }

func (c Config) withDefaults() Config {
	if c.HeartbeatTicks <= 0 {
		c.HeartbeatTicks = 5
	}
	if c.ElectionTimeoutTicks <= 0 {
		c.ElectionTimeoutTicks = 30
	}
	return c
}

type role uint8

const (
	follower role = iota
	candidate
	leader
)

// Node is one Multi-Paxos replica.
type Node struct {
	id  types.NodeID
	cfg Config
	rng *simnet.RNG

	role   role
	ballot types.Ballot // promised ballot (acceptor) = current view
	lead   types.NodeID // believed leader (-1 unknown)

	// Acceptor, learner and open phase-2 state per slot (log.go).
	log       plog
	commitSeq types.Seq // contiguous commit frontier
	decisions []types.Decision

	// Leader state.
	curBallot  types.Ballot
	prepAcks   *quorum.Tally
	recovered  map[types.Seq]Entry // merged from acks
	nextSlot   types.Seq
	queued     []types.Value // submissions waiting for leadership
	elections  int           // leader elections started (metric)
	hbCooldown int
	// Highest commit frontier reported in this campaign's acks, and who
	// reported it: a candidate behind it must catch up before leading
	// (its quorum may have compacted the slots it is missing).
	ackCommit types.Seq
	ackFrom   types.NodeID

	// Follower timers.
	electionIn int
	passive    bool

	// Compaction: slots at or below compactSeq live only in snapData.
	compactSeq types.Seq
	snapData   []byte
	installed  *snapshot.Snapshot

	// Membership epochs, oldest first. A config chosen at slot i takes
	// effect for slots >= i+Alpha; configs[0] is the bootstrap config.
	configs []cfgEpoch

	reads     readindex.Tracker // read.go
	readFloor types.Seq         // the last slot the leader recovered: no read confirms below it

	out, spare []Message // the outbox and what the last Drain handed out: swapped, never regrown
}

// New builds a Multi-Paxos replica.
func New(id types.NodeID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	if q := cfg.Quorums; cfg.flexible() && (!q.Valid() || q.N != len(cfg.Peers)) {
		// Non-intersecting quorums lose chosen values on a leader change.
		panic(fmt.Sprintf("multipaxos: invalid quorum system %s for %d peers", q.Describe(), len(cfg.Peers)))
	}
	n := &Node{
		id:       id,
		cfg:      cfg,
		rng:      simnet.NewRNG(cfg.Seed ^ (uint64(id)+1)<<24),
		lead:     -1,
		nextSlot: 1,
		passive:  cfg.Passive,
	}
	boot := append([]types.NodeID(nil), cfg.Peers...)
	slices.Sort(boot)
	n.configs = []cfgEpoch{{from: 0, members: boot}}
	n.resetElectionTimer()
	return n
}

func (n *Node) resetElectionTimer() {
	n.electionIn = n.cfg.ElectionTimeoutTicks + n.rng.Intn(n.cfg.ElectionTimeoutTicks)
}

func (n *Node) send(m Message) {
	m.From = n.id
	n.out = append(n.out, m)
}

// broadcast fans out to the newest epoch's members — including an epoch
// not yet in force, so a just-admitted node starts receiving heartbeats
// (and can catch up) before its activation slot arrives.
func (n *Node) broadcast(m Message) { n.sendAll(n.latestMembers(), m) }

// sendAll sends m to every node in to but this one.
func (n *Node) sendAll(to []types.NodeID, m Message) {
	for _, p := range to {
		if p == n.id {
			continue
		}
		mm := m
		mm.To = p
		n.send(mm)
	}
}

// IsLeader reports whether this node currently believes it leads.
func (n *Node) IsLeader() bool { return n.role == leader }

// Leader returns the node this replica believes is leader, or -1.
func (n *Node) Leader() types.NodeID { return n.lead }

// Elections returns how many elections this node has started.
func (n *Node) Elections() int { return n.elections }

// CommitFrontier returns the highest contiguously committed slot.
func (n *Node) CommitFrontier() types.Seq { return n.commitSeq }

// TakeDecisions drains newly committed (slot, value) pairs in commit
// order.
func (n *Node) TakeDecisions() []types.Decision {
	d := n.decisions
	n.decisions = nil
	return d
}

// Submit hands the node a value to replicate. Leaders propose it
// immediately; followers forward to the leader they know, or queue it
// until one emerges. The caller yields ownership: per the types.Value
// discipline the payload is immutable, so every hop shares it.
func (n *Node) Submit(v types.Value) {
	switch {
	case n.role == leader:
		n.propose(v)
	case n.lead >= 0 && n.lead != n.id:
		n.send(Message{Kind: MsgForward, To: n.lead, Val: v})
	default:
		n.queued = append(n.queued, v)
	}
}

// propose assigns the next free slot and runs phase 2 for it.
func (n *Node) propose(v types.Value) {
	if snapshot.IsConfChange(v) && !n.confAllowed(v) {
		return // invalid or overlapping membership change: drop
	}
	slot := n.nextSlot
	n.nextSlot++
	n.accept(slot, v)
}

// accept runs phase 2 for slot under the leader's ballot: the leader,
// itself an acceptor, accepts locally, asks the slot's other acceptors
// — its epoch's members, who may no longer be the newest epoch's — and
// counts its own vote like anyone's: a replication quorum of one is
// already met.
func (n *Node) accept(slot types.Seq, v types.Value) {
	_, q2 := n.quorumsFor(slot)
	sl := n.log.at(slot) // never nil: a leader's slots are dense up to nextSlot
	sl.num, sl.val, sl.accepted, sl.votes = n.curBallot, v, true, quorum.NewTally(q2)
	n.sendAll(n.membersFor(slot), Message{Kind: MsgAccept, Ballot: n.curBallot, Slot: slot, Val: v, Commit: n.commitSeq, Read: n.reads.Round()})
	n.vote(slot, sl, n.id)
}

// vote counts from's phase-2 vote for slot and, once the tally is met,
// decides the slot. Nobody is told: the learners hear of it from the
// commit frontier on the next Accept or heartbeat.
func (n *Node) vote(slot types.Seq, sl *slot, from types.NodeID) {
	if sl.votes.Add(from) {
		sl.votes = nil
		n.learn(slot, sl.val)
	}
}

// campaign starts phase 1 for the whole log — the view change. Like an
// Accept, the Prepare goes to the members whose votes the tally counts:
// the epoch of the first undecided slot.
func (n *Node) campaign() {
	n.elections++
	n.role = candidate
	n.ballot = n.ballot.Next(n.id)
	n.curBallot = n.ballot
	q1, _ := n.quorumsFor(n.commitSeq + 1)
	n.prepAcks = quorum.NewTally(q1)
	n.recovered = make(map[types.Seq]Entry)
	// Merge what an Ack of its own would carry.
	for _, e := range n.log.acceptedAbove(n.commitSeq) {
		n.recovered[e.Slot] = e
	}
	n.ackCommit, n.ackFrom = n.commitSeq, n.id
	n.resetElectionTimer()
	n.sendAll(n.membersFor(n.commitSeq+1), Message{Kind: MsgPrepare, Ballot: n.curBallot})
	if n.prepAcks.Add(n.id) {
		n.becomeLeader() // an election quorum of one: nobody to wait for
	}
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
	case MsgCommit:
		if n.role != leader { // see learnThrough: a leader learns by its own tally only
			for _, e := range m.Entries {
				n.learn(e.Slot, e.Val)
			}
		}
	case MsgHeartbeat:
		n.onHeartbeat(m)
	case MsgForward:
		if n.role == leader {
			n.propose(m.Val)
		} else if n.lead >= 0 && n.lead != n.id {
			n.send(Message{Kind: MsgForward, To: n.lead, Val: m.Val})
		} else {
			n.queued = append(n.queued, m.Val)
		}
	case MsgCatchup:
		n.onCatchup(m)
	case MsgState:
		if n.role != leader { // as MsgCommit
			n.onState(m)
		}
	case MsgRead:
		n.onRead(m)
	case MsgReadResp:
		if n.role == leader && m.Ballot == n.curBallot {
			n.reads.Answer(m.From, m.Read)
		}
	}
}

func (n *Node) onPrepare(m Message) {
	if n.ballot.LessEq(m.Ballot) {
		n.ballot = m.Ballot
		n.becomeFollowerOf(m.From)
		// Report the uncommitted tail only. A candidate behind any quorum
		// acker's frontier does not lead (onAck defers and catches up), so
		// by the time becomeLeader reads what was recovered, every slot at
		// or below this frontier is one it has learned, not one it recovers.
		n.send(Message{Kind: MsgAck, To: m.From, Ballot: m.Ballot, Entries: n.log.acceptedAbove(n.commitSeq), Commit: n.commitSeq})
		return
	}
	n.send(Message{Kind: MsgNack, To: m.From, Ballot: n.ballot})
}

func (n *Node) becomeFollowerOf(lead types.NodeID) {
	n.role = follower
	n.lead = lead
	n.reads.Reset()
	if lead >= 0 {
		n.passive = false // heard from a live leader: full citizen now
	}
	n.resetElectionTimer()
	// Submissions queued while leaderless now have somewhere to go.
	if lead != n.id && lead >= 0 {
		queued := n.queued
		n.queued = nil
		for _, v := range queued {
			n.send(Message{Kind: MsgForward, To: lead, Val: v})
		}
	}
}

func (n *Node) onAck(m Message) {
	if n.role != candidate || m.Ballot != n.curBallot {
		return
	}
	for _, e := range m.Entries {
		if cur, ok := n.recovered[e.Slot]; !ok || cur.AcceptNum.Less(e.AcceptNum) {
			n.recovered[e.Slot] = e
		}
	}
	if m.Commit > n.ackCommit {
		n.ackCommit, n.ackFrom = m.Commit, m.From
	}
	if !n.prepAcks.Add(m.From) {
		return
	}
	if n.ackCommit > n.commitSeq {
		// An acker is committed past us and may have compacted the slots
		// we are missing — leading now would no-op-fill chosen slots.
		// Catch up from that acker and let the election timer retry.
		n.send(Message{Kind: MsgCatchup, To: n.ackFrom, Slot: n.commitSeq + 1})
		return
	}
	n.becomeLeader()
}

// becomeLeader finishes the view change: re-propose every recovered
// uncommitted entry under the new ballot, then serve queued submissions.
func (n *Node) becomeLeader() {
	n.role = leader
	n.lead = n.id
	// The new log frontier starts after both the commit frontier and the
	// highest recovered slot.
	n.nextSlot = n.commitSeq + 1
	for _, s := range det.SortedKeys(n.recovered) {
		n.nextSlot = max(n.nextSlot, s+1)
	}
	n.readFloor = n.nextSlot - 1
	// Gaps between commitSeq and nextSlot that no ack reported get no-op
	// values — a missing entry's nil Val — so the log stays dense (classic
	// Multi-Paxos hole filling).
	for s := n.commitSeq + 1; s < n.nextSlot; s++ {
		n.accept(s, n.recovered[s].Val)
	}
	queued := n.queued
	n.queued = nil
	for _, v := range queued {
		n.propose(v)
	}
	n.hbCooldown = 0 // heartbeat immediately to assert leadership
}

func (n *Node) onNack(m Message) {
	if n.ballot.Less(m.Ballot) {
		n.ballot = m.Ballot
		if n.role != follower {
			n.role = follower
			n.lead = -1
			n.reads.Reset()
			n.resetElectionTimer()
		}
	}
}

func (n *Node) onAccept(m Message) {
	if n.ballot.LessEq(m.Ballot) {
		if n.ballot.Less(m.Ballot) || n.lead != m.From {
			n.ballot = m.Ballot
			n.becomeFollowerOf(m.From)
		}
		n.resetElectionTimer()
		// A compacted slot was decided here: vote, with nothing to hold.
		if m.Slot > n.compactSeq {
			sl := n.log.at(m.Slot)
			if sl == nil {
				return // too far ahead (maxAhead): no vote
			}
			sl.num, sl.val, sl.accepted = m.Ballot, m.Val, true
		}
		n.send(Message{Kind: MsgAccepted, To: m.From, Ballot: m.Ballot, Slot: m.Slot, Read: m.Read})
		n.learnThrough(m.Ballot, m.Commit)
		return
	}
	n.send(Message{Kind: MsgNack, To: m.From, Ballot: n.ballot})
}

func (n *Node) onAccepted(m Message) {
	if n.role != leader || m.Ballot != n.curBallot {
		return
	}
	n.reads.Answer(m.From, m.Read)
	// An open tally is one of this ballot: a deposed leader's stay behind
	// until the slot is accepted again or compacted.
	if sl := n.log.get(m.Slot); sl != nil && sl.votes != nil && sl.num == n.curBallot {
		n.vote(m.Slot, sl, m.From)
	}
}

// learn records a chosen slot and advances the contiguous commit
// frontier, emitting decisions in order.
func (n *Node) learn(slot types.Seq, val types.Value) {
	if slot <= n.compactSeq {
		return
	}
	sl := n.log.at(slot)
	if sl == nil {
		return // too far ahead (maxAhead)
	}
	if sl.learned {
		if !sl.chosen.Equal(val) {
			panic(fmt.Sprintf("multipaxos: node %v slot %d chosen twice: %q vs %q", n.id, slot, sl.chosen, val))
		}
		return
	}
	sl.chosen, sl.learned = val, true
	n.advanceFrontier()
}

// learnThrough is the Decision stage at an acceptor. The leader of
// ballot b says its commit frontier is commit; this node learns, in slot
// order from its own frontier, every slot up to there that it accepted
// under b itself, and stops at the first it did not.
//
// Why the value it holds is the chosen one: a leader proposes at most
// one value per slot under b, only for slots above the frontier it was
// elected with, and while it leads its frontier moves by its own tallies
// alone (Step keeps catch-up answers from a leader). So a slot at or
// below commit for which an Accept under b exists was decided by b's
// tally, on the value of that Accept — the one held here. A slot held
// under an older ballot proves nothing: the value b's leader recovered
// for it may be another. That slot, and any this node never accepted,
// waits for the heartbeat's catch-up, which names values.
func (n *Node) learnThrough(b types.Ballot, commit types.Seq) {
	for n.commitSeq < commit {
		sl := n.log.get(n.commitSeq + 1)
		if sl == nil || !sl.accepted || sl.num != b {
			return
		}
		n.learn(n.commitSeq+1, sl.val)
	}
}

// advanceFrontier emits decisions for the contiguous chosen prefix.
// Split from learn so a snapshot install can resume through chosen
// slots that arrived before the install filled the gap below them.
func (n *Node) advanceFrontier() {
	for {
		sl := n.log.get(n.commitSeq + 1)
		if sl == nil || !sl.learned {
			return
		}
		n.commitSeq++
		v := sl.chosen
		n.decisions = append(n.decisions, types.Decision{Slot: n.commitSeq, Val: v})
		if snapshot.IsConfChange(v) {
			// A config chosen at slot i governs slots >= i+Alpha. Every
			// replica schedules the epoch at the same frontier advance, so
			// the switch point is identical cluster-wide.
			if cc, err := snapshot.DecodeConfChange(v); err == nil {
				n.configs = append(n.configs, cfgEpoch{
					from:    n.commitSeq + Alpha,
					members: cc.Apply(n.latestMembers()),
				})
			}
		}
	}
}

func (n *Node) onHeartbeat(m Message) {
	if m.Ballot.Less(n.ballot) {
		n.send(Message{Kind: MsgNack, To: m.From, Ballot: n.ballot})
		return
	}
	if n.ballot.Less(m.Ballot) || n.lead != m.From || n.role != follower {
		n.ballot = m.Ballot
		n.becomeFollowerOf(m.From)
	}
	n.resetElectionTimer()
	n.learnThrough(m.Ballot, m.Commit)
	if m.Commit > n.commitSeq {
		n.send(Message{Kind: MsgCatchup, To: m.From, Slot: n.commitSeq + 1})
	}
}

// onCatchup streams committed slots from the requested frontier to a
// lagging follower, batched into one message.
func (n *Node) onCatchup(m Message) {
	// Any replica may serve catch-up: chosen values and snapshots are
	// final facts, so a follower answering a deferring candidate is safe.
	if m.Slot <= n.compactSeq && n.snapData != nil {
		// The requested slots were compacted away: state-transfer the
		// snapshot instead. The follower asks again for anything above it.
		n.send(Message{Kind: MsgState, To: m.From, Val: types.Value(n.snapData), Commit: n.commitSeq})
		return
	}
	// Exact-capacity batch: the frontier bounds how many slots remain.
	max := 64
	if span := int(n.commitSeq - m.Slot + 1); span < max {
		max = span
	}
	if max <= 0 {
		return
	}
	entries := make([]Entry, 0, max)
	for s := m.Slot; s <= n.commitSeq && len(entries) < 64; s++ {
		if sl := n.log.get(s); sl != nil && sl.learned {
			entries = append(entries, Entry{Slot: s, Val: sl.chosen})
		}
	}
	if len(entries) > 0 {
		n.send(Message{Kind: MsgCommit, To: m.From, Entries: entries})
	}
}

// Tick advances timers: leaders heartbeat, followers run election
// timeouts, candidates retry.
func (n *Node) Tick() {
	switch n.role {
	case leader:
		n.hbCooldown--
		if n.hbCooldown <= 0 {
			n.hbCooldown = n.cfg.HeartbeatTicks
			n.broadcast(Message{Kind: MsgHeartbeat, Ballot: n.curBallot, Commit: n.commitSeq})
			n.reask()
		}
	case follower, candidate:
		n.electionIn--
		if n.electionIn <= 0 {
			if n.passive || !n.isMember(n.id) {
				// Joiners and removed nodes never campaign.
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
