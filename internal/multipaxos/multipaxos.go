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
// Phase 2 goes to a quorum: an Accept leaves at once only for the Q2−1
// acceptors that answered the highest slots, and once a tick the leader
// pushes every other follower what it has not been sent.
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
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

func init() {
	p := core.Profile{
		Name:         "multipaxos",
		Failure:      core.Crash,
		Strategy:     core.Pessimistic,
		NodesFor:     func(f int) int { return quorum.MajorityFor(f).Size() },
		NodesFormula: "2f+1",
		QuorumFor:    func(f int) int { return f + 1 },
		CommitPhases: 1, // steady state: Accept/Accepted round trip
		AltPhases:    2, // with leader election
		Complexity:   core.Linear,
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
	MsgCatchup  // follower asks for committed slots it is missing
	MsgState    // state transfer: one chunk of the snapshot replacing compacted slots
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
	Entries  []Entry   // Ack: the entries accepted above Commit; Commit, Heartbeat: chosen slots
	Commit   types.Seq // Accept, Heartbeat: leader's commit frontier; Ack, State: sender's
	Offset   uint32    // State: the chunk's byte offset; Catchup: the offset the asker's receiver wants
	Done     bool      // State: the chunk is the snapshot's last
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
	// for leadership; each node adds seeded jitter. A node that has
	// promised no ballot arms only a jitter in [1, HeartbeatTicks].
	// Default 30.
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
	replog.Core[Message]

	id  types.NodeID
	cfg Config
	rng *simnet.RNG

	role   role
	ballot types.Ballot // promised ballot (acceptor) = current view
	lead   types.NodeID // believed leader (-1 unknown)

	// Acceptor, learner and open phase-2 state per slot. An Accept or
	// catch-up entry replog.MaxAhead or more past the last page is
	// ignored; the heartbeat's catch-up heals it like any lost Accept.
	log       replog.Log[slot]
	commitSeq types.Seq // contiguous commit frontier

	// Leader state.
	curBallot  types.Ballot
	prs        map[types.NodeID]*progress // per follower, reset by becomeLeader
	picks      []types.NodeID             // accept's scratch: whom a new slot goes to
	prepAcks   *quorum.Tally
	prepTo     []types.NodeID      // the member set the campaign's Prepare went to, whose Q1 prepAcks counts
	recovered  map[types.Seq]Entry // merged from acks
	nextSlot   types.Seq
	elections  int // leader elections started (metric)
	hbCooldown int
	lastBeat   types.Seq // 1 + the commit frontier at this leadership's last heartbeat; 0 = none yet
	// Highest commit frontier reported in this campaign's acks, and who
	// reported it: a candidate behind it must catch up before leading
	// (its quorum may have compacted the slots it is missing).
	ackCommit types.Seq
	ackFrom   types.NodeID

	// Follower timers.
	electionIn int
	askIn      int // ticks until a heartbeat may draw another MsgCatchup
	passive    bool

	recv snapshot.Receiver // an incoming snapshot transfer

	// Membership epochs, oldest first. A config chosen at slot i takes
	// effect for slots >= i+Alpha; configs[0] is the bootstrap config.
	configs []cfgEpoch

	reads     readindex.Tracker // read.go
	readFloor types.Seq         // the last slot the leader recovered: no read confirms below it
}

// slot is everything a node holds about one log position.
type slot struct {
	num      types.Ballot  // acceptor: the ballot val was accepted under
	val      types.Value   // acceptor: the accepted value
	chosen   types.Value   // learner: the decided value, which an older accepted one need not equal
	votes    *quorum.Tally // leader: the phase-2 tally of ballot num, until it is met
	accepted bool
	learned  bool
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

// resetElectionTimer is raft.Node.resetElectionTimer's rule with a
// promised ballot in place of a term: a node that has promised none has
// heard no leader, so it skips the ElectionTimeoutTicks base and waits
// one tick plus a seeded jitter in [0, HeartbeatTicks).
func (n *Node) resetElectionTimer() {
	if n.ballot.IsZero() {
		n.electionIn = 1 + n.rng.Intn(n.cfg.HeartbeatTicks)
		return
	}
	n.electionIn = n.cfg.ElectionTimeoutTicks + n.rng.Intn(n.cfg.ElectionTimeoutTicks)
}

func (n *Node) send(m Message) {
	m.From = n.id
	n.Post(m)
}

// sendAll sends m to every node in to but this one.
func (n *Node) sendAll(to []types.NodeID, m Message) {
	for _, m.To = range to {
		if m.To != n.id {
			n.send(m)
		}
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

// Submit proposes a value in the next free slot if this node leads, and
// otherwise drops it: routing a request to the leader is the host's job
// (Leader names the one this node believes in). The caller yields
// ownership: per the types.Value discipline the payload is immutable, so
// every Accept shares it.
func (n *Node) Submit(v types.Value) {
	if n.role != leader {
		return
	}
	if snapshot.IsConfChange(v) && !n.confAllowed(v) {
		return // invalid or overlapping membership change: drop
	}
	slot := n.nextSlot
	n.nextSlot++
	n.accept(slot, v)
}

// accept runs phase 2 for slot under the leader's ballot: the leader,
// itself an acceptor, accepts locally, asks the Q2−1 of the slot's other
// acceptors — its epoch's members, who may no longer be the newest
// epoch's — that answered the highest slots (all of them for a
// membership change), and counts its own vote like anyone's.
func (n *Node) accept(slot types.Seq, v types.Value) {
	_, q2 := n.quorumsFor(slot)
	sl := n.log.At(slot) // never nil: a leader's slots are dense up to nextSlot
	sl.num, sl.val, sl.accepted, sl.votes = n.curBallot, v, true, quorum.NewTally(q2)
	n.Touch(slot)
	to := n.membersFor(slot)
	if !snapshot.IsConfChange(v) {
		to = quorum.Pick(n.picks, to, n.id, q2, func(p types.NodeID) types.Seq { return n.progress(p).acked })
		n.picks = to
	}
	for _, p := range to {
		if p != n.id {
			n.sendAccept(p, slot, sl)
		}
	}
	n.vote(slot, sl, n.id)
}

// progress is the leader's record of a follower, which it first takes
// to hold the commit frontier: one that does not asks (MsgCatchup).
type progress struct {
	sent  types.Seq // every slot at or below it was sent, in an Accept or a heartbeat
	acked types.Seq // the highest slot it answered
	told  types.Seq // 1 + the commit frontier the last message this heartbeat interval carried; 0 = none sent
}

func (n *Node) progress(p types.NodeID) *progress {
	if n.prs[p] == nil {
		n.prs[p] = &progress{sent: n.commitSeq}
	}
	return n.prs[p]
}

func (n *Node) sendAccept(p types.NodeID, s types.Seq, sl *slot) {
	pr := n.progress(p)
	n.send(Message{Kind: MsgAccept, To: p, Ballot: n.curBallot, Slot: s, Val: sl.val, Commit: n.commitSeq, Read: n.reads.Round()})
	if pr.sent+1 == s {
		pr.sent = s
	}
	pr.told = n.commitSeq + 1
}

// push sends p what it has not been sent through slot through, up to
// snapshot.BatchBytes: the chosen slots in one heartbeat, each open slot
// as an Accept. An open slot of an epoch p is not a member of ends the
// push: p may not vote on it, and is sent it once it is chosen. A
// follower not sent the compacted prefix is pulling the snapshot.
func (n *Node) push(p types.NodeID, pr *progress, through types.Seq) {
	var chosen []Entry
	for size := 0; pr.sent >= n.SnapshotIndex() && pr.sent < through && size < snapshot.BatchBytes; {
		sl := n.log.Get(pr.sent + 1) // never nil: a leader's slots are dense up to nextSlot
		if sl.learned {
			pr.sent++
			chosen = append(chosen, Entry{Slot: pr.sent, Val: sl.chosen})
			size += len(sl.chosen)
		} else if slices.Contains(n.membersFor(pr.sent+1), p) {
			n.sendAccept(p, pr.sent+1, sl) // which moves sent past it
			size += len(sl.val)
		} else {
			break
		}
	}
	if len(chosen) > 0 {
		n.send(Message{Kind: MsgHeartbeat, To: p, Ballot: n.curBallot, Commit: n.commitSeq, Entries: chosen})
		pr.told = n.commitSeq + 1
	}
}

// vote counts from's phase-2 vote for slot and, once the tally is met,
// decides the slot. Only a member of the slot's own epoch votes on it: a
// joiner's or a removed leader's vote makes no quorum of that epoch.
// Nobody is told: the learners hear of it from the commit frontier on
// the next Accept or heartbeat.
func (n *Node) vote(slot types.Seq, sl *slot, from types.NodeID) {
	if slices.Contains(n.membersFor(slot), from) && sl.votes.Add(from) {
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
	n.lead = -1 // as raft's candidate: it names no leader until one leads
	n.ballot = n.ballot.Next(n.id)
	n.curBallot = n.ballot
	q1, _ := n.quorumsFor(n.commitSeq + 1)
	n.prepAcks = quorum.NewTally(q1)
	n.prepTo = n.membersFor(n.commitSeq + 1)
	n.recovered = make(map[types.Seq]Entry)
	// Merge what an Ack of its own would carry.
	for _, e := range n.acceptedAbove(n.commitSeq) {
		n.recovered[e.Slot] = e
	}
	n.ackCommit, n.ackFrom = n.commitSeq, n.id
	n.resetElectionTimer()
	n.sendAll(n.prepTo, Message{Kind: MsgPrepare, Ballot: n.curBallot})
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
			n.win()
		}
	case MsgHeartbeat:
		n.onHeartbeat(m)
	case MsgCatchup:
		n.onCatchup(m)
	case MsgState:
		if n.role != leader { // as MsgCommit
			n.onState(m)
			n.win()
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
		n.send(Message{Kind: MsgAck, To: m.From, Ballot: m.Ballot, Entries: n.acceptedAbove(n.commitSeq), Commit: n.commitSeq})
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
	asked := n.prepAcks.Reached()
	if !n.prepAcks.Add(m.From) {
		return
	}
	if n.ackCommit > n.commitSeq && !asked {
		// An acker is committed past us and may have compacted the slots
		// we are missing — leading now would no-op-fill chosen slots.
		// Catch up from that acker, once: asking again on a later ack
		// would start a snapshot transfer over from its first chunk.
		n.catchup(n.ackFrom)
	}
	n.win()
}

// win ends a campaign whose election quorum answered once no acker is
// committed past the candidate: at the last ack, or at the answer to
// the catch-up onAck asked for rather than at the election timer, where
// the next candidate behind would do the same. The tally, and what the
// acks recovered, speak for the member set the Prepare went to; a
// candidate that has since learned into another epoch may miss what
// that epoch's quorums chose, so it campaigns again from its frontier.
func (n *Node) win() {
	if n.role != candidate || !n.prepAcks.Reached() || n.commitSeq < n.ackCommit {
		return
	}
	if !slices.Equal(n.membersFor(n.commitSeq+1), n.prepTo) {
		n.campaign()
		return
	}
	n.becomeLeader()
}

// becomeLeader finishes the view change: re-propose every recovered
// uncommitted entry under the new ballot.
func (n *Node) becomeLeader() {
	n.role = leader
	n.lead = n.id
	n.prs = make(map[types.NodeID]*progress)
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
	n.hbCooldown = 0 // heartbeat immediately to assert leadership
	n.lastBeat = 0
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
		if m.Slot > n.SnapshotIndex() {
			sl := n.log.At(m.Slot)
			if sl == nil {
				return // too far ahead (MaxAhead): no vote
			}
			sl.num, sl.val, sl.accepted = m.Ballot, m.Val, true
			n.Touch(m.Slot)
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
	pr := n.progress(m.From)
	pr.acked = max(pr.acked, m.Slot)
	// An open tally is one of this ballot: a deposed leader's stay behind
	// until the slot is accepted again or compacted.
	if sl := n.log.Get(m.Slot); sl != nil && sl.votes != nil && sl.num == n.curBallot {
		n.vote(m.Slot, sl, m.From)
	}
}

// learn records a chosen slot and advances the contiguous commit
// frontier, emitting decisions in order.
func (n *Node) learn(slot types.Seq, val types.Value) {
	if slot <= n.SnapshotIndex() {
		return
	}
	sl := n.log.At(slot)
	if sl == nil {
		return // too far ahead (MaxAhead)
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
// waits for a push or a Commit, which name values.
func (n *Node) learnThrough(b types.Ballot, commit types.Seq) {
	for n.commitSeq < commit {
		sl := n.log.Get(n.commitSeq + 1)
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
		sl := n.log.Get(n.commitSeq + 1)
		if sl == nil || !sl.learned {
			return
		}
		n.commitSeq++
		v := sl.chosen
		n.Decide(n.commitSeq, v)
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

// onHeartbeat takes a heartbeat, which a push fills with chosen slots. A
// follower still short of the frontier asks, at most once an interval:
// the pushes already on their way when it asked are not lost ones.
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
	for _, e := range m.Entries {
		n.learn(e.Slot, e.Val)
	}
	n.learnThrough(m.Ballot, m.Commit)
	if m.Commit > n.commitSeq && n.askIn <= 0 && n.recv.Stalled() {
		n.askIn = n.cfg.HeartbeatTicks
		n.catchup(m.From)
	}
}

// onCatchup serves a lagging replica the committed slots from the one it
// names: the leader rewinds its push there, anyone else sends a Commit.
func (n *Node) onCatchup(m Message) {
	var pr *progress
	if n.role == leader {
		pr = n.progress(m.From)
		pr.sent = m.Slot - 1
	}
	// Any replica may serve catch-up: chosen values and snapshots are
	// final facts, so a follower answering a deferring candidate is safe.
	if m.Slot <= n.SnapshotIndex() && n.Snapshot() != nil {
		// The requested slots were compacted away: send the snapshot's
		// chunks from the asked offset to the end of its window instead,
		// and compact nothing while the transfer lasts, which would start
		// it over. The follower asks for the next window, and then for
		// anything above the snapshot.
		n.HoldCompact(n.cfg.ElectionTimeoutTicks)
		for off := int(m.Offset); ; off += snapshot.ChunkSize {
			chunk, done := snapshot.ChunkAt(n.Snapshot(), off)
			n.send(Message{Kind: MsgState, To: m.From, Slot: n.SnapshotIndex(), Val: types.Value(chunk), Offset: uint32(off), Done: done, Commit: n.commitSeq})
			if done || (off+snapshot.ChunkSize)%snapshot.Window == 0 {
				return
			}
		}
	}
	if pr != nil {
		n.push(m.From, pr, n.nextSlot-1)
		return
	}
	var entries []Entry
	for s, size := m.Slot, 0; s <= n.commitSeq && size < snapshot.BatchBytes; s++ {
		if sl := n.log.Get(s); sl != nil && sl.learned {
			entries = append(entries, Entry{Slot: s, Val: sl.chosen})
			size += len(sl.chosen)
		}
	}
	if len(entries) > 0 {
		n.send(Message{Kind: MsgCommit, To: m.From, Entries: entries})
	}
}

// pushRemoved sends each member a chosen config removed what it has not
// been sent through the slot that removed it, and a commit frontier
// past that slot: it learns it is out, and never campaigns. After that
// it hears nothing more.
func (n *Node) pushRemoved() {
	for i := 1; i < len(n.configs); i++ {
		through := n.configs[i].from - Alpha
		for _, p := range n.configs[i-1].members {
			if p == n.id || n.isMember(p) {
				continue
			}
			pr := n.progress(p)
			n.push(p, pr, through)
			if pr.told <= through {
				n.send(Message{Kind: MsgHeartbeat, To: p, Ballot: n.curBallot, Commit: through})
				pr.told = through + 1
			}
		}
	}
}

// Tick advances timers. The leader pushes every follower of the newest
// epoch (a joiner too) what it lacks, so a stalled pick costs a tick, and
// each HeartbeatTicks heartbeats one that nothing told the frontier; a
// removed member it pushes through its removal (pushRemoved). A frontier
// that stood still for a whole interval below an open slot waits on
// Accepts or votes the network lost: the heartbeat rewinds the push of
// each follower that has not voted on that slot, which sends it again.
func (n *Node) Tick() {
	n.TickHold()
	switch n.role {
	case leader:
		n.hbCooldown--
		beat := n.hbCooldown <= 0
		var waiting *quorum.Tally // the votes of the slot a still frontier waits on
		if beat {
			n.hbCooldown = n.cfg.HeartbeatTicks
			if n.lastBeat == n.commitSeq+1 && n.commitSeq+1 < n.nextSlot {
				waiting = n.log.Get(n.commitSeq + 1).votes
			}
			n.lastBeat = n.commitSeq + 1
		}
		for _, p := range n.latestMembers() {
			if p == n.id {
				continue
			}
			pr := n.progress(p)
			if waiting != nil && pr.sent > n.commitSeq && !waiting.Has(p) {
				pr.sent = n.commitSeq
			}
			n.push(p, pr, n.nextSlot-1)
			if beat {
				if pr.told != n.commitSeq+1 {
					n.send(Message{Kind: MsgHeartbeat, To: p, Ballot: n.curBallot, Commit: n.commitSeq})
				}
				pr.told = 0
			}
		}
		n.pushRemoved()
		n.reask(beat)
	case follower, candidate:
		n.askIn = max(n.askIn-1, 0)
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

// acceptedAbove lists, in slot order, what the acceptor holds above from.
func (n *Node) acceptedAbove(from types.Seq) []Entry {
	var out []Entry
	n.log.Each(from, func(s types.Seq, sl *slot) {
		if sl.accepted {
			out = append(out, Entry{Slot: s, AcceptNum: sl.num, Val: sl.val})
		}
	})
	return out
}
