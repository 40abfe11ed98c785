// Package multipaxos implements Multi-Paxos as the paper presents it: a
// Basic Paxos instance per log slot, with the optimization that phase 1
// runs "only when the leader changes" (the slides' view-change / recovery
// mode) while the stable leader drives phase 2 in normal mode.
//
// It is the second of two electors on replog's replication core, Raft
// the first (Howard & Mortier, "Paxos vs Raft"): phase 2 is the core's
// append — an Accept carries a batch of slots, an Accepted acknowledges
// the log through a slot — and so are the commit frontier that rides the
// next Accept or heartbeat, catch-up, compaction, snapshot transfer and
// reads. This package keeps what Paxos decides for itself: Leader
// Election by Prepare and Ack over ballots, which any candidate may win,
// and so Value Discovery — the candidate merges, per slot above its
// frontier, the value accepted under the highest ballot its phase-1
// quorum reports, fills the holes with no-ops, and proposes them all
// again under its own ballot. An entry's tag is its ballot, packed into
// one word (packBallot). An acceptor's log is the core's keep mode: an
// accepted entry is only ever replaced by a leader's, never truncated
// away, so what a quorum accepted is there for the next Prepare to find.
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

// MsgKind enumerates Multi-Paxos message types. From MsgAccept on they
// are replog's replication kinds, in its order.
type MsgKind uint8

const (
	MsgPrepare   MsgKind = iota + 1
	MsgAck               // a promise, with what the acker holds past the candidate's frontier
	MsgNack              // a refusal, naming the ballot the refuser holds
	MsgAccept            // phase 2: slots after Slot, and the commit frontier
	MsgAccepted          // an Accept's ack (OK) or refusal (the Slot it refused)
	MsgState             // state transfer: one chunk of the snapshot replacing compacted slots
	MsgStateResp         // a chunk's ack: the offset wanted next, or the install report
	MsgRead              // read probe: is this still the leader's ballot?
	MsgReadResp          // the probe's answer, under the answerer's ballot
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
	case MsgState:
		return "state-transfer"
	case MsgStateResp:
		return "state-transfer-resp"
	case MsgRead:
		return "read"
	case MsgReadResp:
		return "read-resp"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Entry is one slot of the log: the packed ballot it was accepted under
// (packBallot) and its value.
type Entry = replog.Entry

// Message is a Multi-Paxos wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	Ballot   types.Ballot // the sender's ballot: promised, or leading under
	// Accept: the slot before Entries; Accepted: the slot matched
	// through, or the one refused; State: the snapshot's last slot;
	// Prepare, Ack: the candidate's commit frontier, which Ack's Entries
	// follow.
	Slot    types.Seq
	Prev    uint64    // Accept: the packed ballot of Slot's entry
	Entries []Entry   // Accept: the slots after Slot; Ack: what the acker holds after it
	Commit  types.Seq // Accept, State: the leader's commit frontier; Ack: the acker's
	Match   types.Seq // Accepted: the slot matched through, or where to resume; StateResp: the install's frontier
	OK      bool      // Accepted: an ack; State: asks for an answer; StateResp: an ack
	Val     types.Value
	Offset  uint32 // State: the chunk's byte offset; StateResp: the offset wanted next
	Done    bool   // State: the chunk is the snapshot's last; StateResp: the install finished
	Read    uint64 // Read, Accept: the leader's newest read round, echoed by ReadResp, Accepted
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Wire is a replication message as a Multi-Paxos message.
func (n *Node) Wire(m *replog.Msg) Message {
	return Message{
		Kind: MsgKind(m.Kind) + MsgAccept - MsgKind(replog.Append), From: m.From, To: m.To, Ballot: unpackBallot(m.Term),
		Slot: m.PrevIndex, Prev: m.PrevTerm, Entries: m.Entries, Commit: m.Commit, Match: m.Match,
		OK: m.Success, Val: m.Val, Offset: m.Offset, Done: m.Done, Read: m.Read,
	}
}

// replicated is a Multi-Paxos message of a replication kind, whose
// ballot packs to term, as the core takes it: the same entries, which
// the core copies what it keeps of.
func replicated(m *Message, term uint64) replog.Msg {
	return replog.Msg{
		Kind: replog.Kind(m.Kind-MsgAccept) + replog.Append, From: m.From, To: m.To, Term: term,
		PrevIndex: m.Slot, PrevTerm: m.Prev, Entries: m.Entries, Commit: m.Commit, Match: m.Match,
		Success: m.OK, Val: m.Val, Offset: m.Offset, Done: m.Done, Read: m.Read,
	}
}

// Config tunes a node.
type Config struct {
	Peers []types.NodeID
	replog.ElectorConfig
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
	ballot types.Ballot // promised ballot (acceptor) = current view; a candidate's or leader's own
	prior  types.Ballot // a candidate's promise before its campaign
	lead   types.NodeID // believed leader (-1 unknown)

	// Candidate state.
	prepAcks  *quorum.Tally
	prepTo    []types.NodeID             // the member set the campaign's Prepare went to, whose Q1 prepAcks counts
	recovered map[types.Seq]Entry        // per slot past the frontier, the entry accepted under the highest ballot
	acked     map[types.NodeID]types.Seq // each acker's frontier: its log is the decided one through it
	// The highest commit frontier an acker reported, and the slots it
	// holds from the candidate's frontier through it: decided there, so
	// a candidate behind it learns them before it leads.
	ackCommit types.Seq
	learned   []Entry
	elections int // leader elections started (metric)

	electionIn int
	quiet      int // ticks since the leader was last heard: the voting rule's clock
	passive    bool

	// Membership epochs, oldest first. A config chosen at slot i takes
	// effect for slots >= i+Alpha; configs[0] governs every slot below
	// configs[1].from.
	configs []cfgEpoch
}

// New builds a Multi-Paxos replica.
func New(id types.NodeID, cfg Config) *Node {
	cfg.ElectorConfig = replog.DefaultElector(cfg.ElectorConfig)
	if q := cfg.Quorums; cfg.flexible() && (!q.Valid() || q.N != len(cfg.Peers)) {
		// Non-intersecting quorums lose chosen values on a leader change.
		panic(fmt.Sprintf("multipaxos: invalid quorum system %s for %d peers", q.Describe(), len(cfg.Peers)))
	}
	n := &Node{
		id:      id,
		cfg:     cfg,
		rng:     simnet.NewRNG(cfg.Seed ^ (uint64(id)+1)<<24),
		lead:    -1,
		quiet:   cfg.ElectionTimeoutTicks, // it has heard no leader
		passive: cfg.Passive,
	}
	boot := append([]types.NodeID(nil), cfg.Peers...)
	slices.Sort(boot)
	n.configs = []cfgEpoch{{from: 0, members: boot}}
	n.Init(id, n, cfg.ElectorConfig, boot, true)
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

// IsLeader reports whether this node currently believes it leads.
func (n *Node) IsLeader() bool { return n.role == leader }

// Leader returns the node this replica believes is leader, or -1.
func (n *Node) Leader() types.NodeID { return n.lead }

// Elections returns how many elections this node has started.
func (n *Node) Elections() int { return n.elections }

// Term is the promised ballot, packed: what the core stamps its messages
// with and an entry of this leader's is tagged with.
func (n *Node) Term() uint64 {
	t, _ := packBallot(n.ballot)
	return t
}

// Submit proposes a value in the next free slot if this node leads, and
// otherwise drops it: routing a request to the leader is the host's job
// (Leader names the one this node believes in). The caller yields
// ownership: per the types.Value discipline the payload is immutable, so
// every Accept shares it. A membership change goes to every member.
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

// campaign starts phase 1 for the whole log — the view change. The
// Prepare goes to the members whose votes the tally counts: the epoch of
// the first undecided slot. It names the candidate's frontier, past
// which each Ack reports what its acker holds.
func (n *Node) campaign() {
	next := n.ballot.Next(n.id)
	if _, ok := packBallot(next); !ok {
		n.resetElectionTimer() // no tag holds a higher ballot: this node never leads
		return
	}
	if n.role != candidate {
		n.prior = n.ballot
	}
	n.elections++
	n.role = candidate
	n.lead = -1 // as raft's candidate: it names no leader until one leads
	n.ballot = next
	commit := n.CommitFrontier()
	q1, _ := n.quorumsFor(commit + 1)
	n.prepAcks = quorum.NewTally(q1)
	n.prepTo = n.membersFor(commit + 1)
	n.recovered = make(map[types.Seq]Entry)
	n.acked = make(map[types.NodeID]types.Seq)
	n.ackCommit, n.learned = commit, nil
	n.resetElectionTimer()
	for _, p := range n.prepTo {
		if p != n.id {
			n.send(Message{Kind: MsgPrepare, To: p, Ballot: n.ballot, Slot: commit})
		}
	}
	n.merge(n.id, commit, n.CommitFrontier(), n.Held(commit)) // its own Ack
}

// Step consumes one delivered message. A ballot no entry tag can hold is
// no ballot this node may promise: the message is dropped.
func (n *Node) Step(m Message) {
	b, ok := packBallot(m.Ballot)
	if !ok || m.Kind == MsgPrepare && n.heeding(m.From) {
		return
	}
	if m.Kind == MsgPrepare && n.behind(m.Slot) {
		// No Ack can carry what the candidate lacks: it must not lead, and
		// is refused without a promise, so a leader goes on leading and
		// sends it the log, or the snapshot.
		n.send(Message{Kind: MsgNack, To: m.From, Ballot: n.ballot})
		return
	}
	if b > n.Term() {
		n.ballot = m.Ballot
		if n.role != follower {
			n.becomeFollowerOf(-1)
		}
	}
	switch m.Kind {
	case MsgPrepare:
		n.onPrepare(m)
	case MsgAck:
		switch {
		case m.Ballot != n.ballot:
		case n.role == candidate && m.Slot == n.CommitFrontier():
			n.merge(m.From, m.Slot, m.Commit, m.Entries)
		case n.role == leader:
			n.Acked(m.From, m.Commit) // an Ack the election did not wait for
		}
	case MsgNack:
		// A higher ballot was taken above. A lower one refuses a candidate
		// too far behind the refuser: it withdraws, and takes back the
		// promise it gave its own ballot — which no value was proposed
		// under — so that ballot's Nacks do not defeat the campaigns of
		// the nodes that can lead.
		if n.role == candidate {
			n.ballot = n.prior
			n.becomeFollowerOf(-1)
		}
	case MsgAccept, MsgAccepted, MsgState, MsgStateResp, MsgRead, MsgReadResp:
		n.Replicate(replicated(&m, b))
	}
}

// ackSlots bounds the decided slots one Ack carries to a candidate
// behind the acker, and snapshot.BatchBytes their values: an Ack is a
// frame, and its size must not follow the log's.
const ackSlots = 1024

// behind reports whether a candidate whose frontier is s is too far
// behind this node to learn what it lacks from an Ack: it lies in what
// this node compacted, or would not fit one.
func (n *Node) behind(s types.Seq) bool {
	if s < n.SnapshotIndex() || n.CommitFrontier() > s+ackSlots {
		return true
	}
	size := 0
	for i := s + 1; i <= n.CommitFrontier(); i++ {
		if size += len(n.At(i).Val); size > snapshot.BatchBytes {
			return true
		}
	}
	return false
}

// onPrepare promises the ballot and reports what this acceptor holds
// past the candidate's frontier, decided or not; it refuses a lower
// ballot.
func (n *Node) onPrepare(m Message) {
	if m.Ballot.Less(n.ballot) {
		n.send(Message{Kind: MsgNack, To: m.From, Ballot: n.ballot})
		return
	}
	n.becomeFollowerOf(m.From)
	n.send(Message{Kind: MsgAck, To: m.From, Ballot: m.Ballot, Slot: m.Slot, Commit: n.CommitFrontier(), Entries: n.Held(m.Slot)})
}

// heeding is raft.Node.heeding's voting rule for a Prepare from another
// node than the leader: a follower that heard from its leader within
// ElectionTimeoutTicks ignores it — no promise, no higher ballot, no
// answer. A Prepare from the node it follows (a candidate it promised,
// campaigning again) is answered. Only Heard restarts the clock: a
// promise names a leader, but hears none.
func (n *Node) heeding(from types.NodeID) bool {
	return n.role == follower && n.lead != from && n.quiet < n.cfg.ElectionTimeoutTicks
}

// Heard is an Accept, chunk or probe of the promised ballot from its
// leader.
func (n *Node) Heard(lead types.NodeID) {
	n.quiet = 0
	if n.lead != lead || n.role != follower {
		n.becomeFollowerOf(lead)
		return
	}
	n.resetElectionTimer()
}

func (n *Node) becomeFollowerOf(lead types.NodeID) {
	n.role = follower
	n.lead = lead
	n.Unlead()
	if lead >= 0 {
		n.passive = false // heard from a live leader: full citizen now
	}
	n.resetElectionTimer()
}

// merge takes one Ack — from, with commit its frontier and entries what
// it holds after slot s — into the candidate's recovery: per slot, the
// entry of the highest ballot; and the decided slots of the acker
// furthest ahead.
func (n *Node) merge(from types.NodeID, s, commit types.Seq, entries []Entry) {
	for k, e := range entries {
		slot := s + 1 + types.Seq(k)
		if cur, ok := n.recovered[slot]; !ok || cur.Term < e.Term {
			n.recovered[slot] = e
		}
	}
	n.acked[from] = commit
	if commit > n.ackCommit {
		k := min(commit-s, types.Seq(len(entries)))
		n.ackCommit, n.learned = s+k, append([]Entry(nil), entries[:k]...)
	}
	if n.prepAcks.Add(from) {
		n.win()
	}
}

// win ends a campaign whose election quorum answered. A candidate behind
// an acker's frontier first learns the slots that acker decided. The
// tally, and what the acks recovered, speak for the member set the
// Prepare went to; a candidate that has since learned into another epoch
// may miss what that epoch's quorums chose, so it campaigns again from
// its frontier.
func (n *Node) win() {
	if n.ackCommit > n.CommitFrontier() {
		n.Learn(n.CommitFrontier(), n.learned, n.ackCommit)
	}
	if !slices.Equal(n.membersFor(n.CommitFrontier()+1), n.prepTo) {
		n.campaign()
		return
	}
	n.becomeLeader()
}

// becomeLeader finishes the view change: every recovered slot past the
// frontier is proposed again under the new ballot, and a slot no ack
// reported gets a no-op — a nil value — so the log stays dense (classic
// Multi-Paxos hole filling). An acker's log is the decided one through
// the frontier it reported, so the leader feeds it from there at once.
func (n *Node) becomeLeader() {
	n.role = leader
	n.lead = n.id
	commit := n.CommitFrontier()
	end := commit
	for _, s := range det.SortedKeys(n.recovered) {
		end = max(end, s)
	}
	tail := make([]Entry, end-commit)
	for i := range tail {
		tail[i] = Entry{Term: n.Term(), Val: n.recovered[commit+1+types.Seq(i)].Val}
	}
	acked := n.acked
	n.recovered, n.learned, n.acked = nil, nil, nil
	n.Rewind(commit + 1)
	n.Lead(tail, acked)
}

// Appended is nothing to Paxos: a config takes effect once chosen.
func (n *Node) Appended(types.Seq, types.Value) {}

// Truncated is nothing to Paxos: epochs come from chosen slots alone.
func (n *Node) Truncated(types.Seq) {}

// Committed schedules the epoch a chosen config opens: a config chosen at
// slot i governs slots >= i+Alpha. Every replica schedules it at the same
// frontier advance, so the switch point is identical cluster-wide. An
// epoch whose slots are all decided is dropped, and its members with it
// from the peers the leader replicates to.
func (n *Node) Committed(i types.Seq, v types.Value) {
	changed := false
	if snapshot.IsConfChange(v) {
		if cc, err := snapshot.DecodeConfChange(v); err == nil {
			n.configs = append(n.configs, cfgEpoch{from: i + Alpha, members: cc.Apply(n.latestMembers())})
			changed = true
		}
	}
	for len(n.configs) > 1 && n.configs[1].from <= i+1 {
		n.configs = n.configs[1:]
		changed = true
	}
	if changed {
		n.setPeers()
	}
}

// Tick advances timers.
func (n *Node) Tick() {
	n.TickHold()
	n.quiet++
	switch n.role {
	case leader:
		// A scheduled epoch opens only once the slots before it are
		// decided: a leader with nothing to write fills them, a no-op a
		// heartbeat (as hole filling does), or the next membership change
		// waits on client writes forever.
		if n.Beat() && n.latestFrom() > n.LastIndex() {
			n.Propose(nil, false)
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
