// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI '99) as the paper presents it: 3f+1 replicas, quorums of
// 2f+1, and a three-phase agreement protocol —
//
//	pre-prepare  (primary picks the order of requests)
//	prepare      (ensures order within a view)
//	commit       (ensures order across views)
//
// plus timeout-triggered view changes and periodic checkpoints for
// garbage collection.
//
// UpRight (Clement et al., SOSP 2009) is the same flow under a hybrid
// failure model: up to m byzantine and c crash faults at once, with
// 3m+2c+1 replicas, quorums of 2m+c+1 and m+1 wherever PBFT says f+1
// ("at least one correct replica"). Every threshold here is read off
// quorum.Hybrid{M: Config.F, C: Config.C}; Config.C = 0 is PBFT and
// Config.C > 0 is UpRight's agreement core. UpRight's other ideas —
// separating the request path from the control path, speculative
// execution — live in the zyzzyva package.
//
// Profile (the fact box): partially-synchronous, byzantine, pessimistic,
// known participants, 3f+1 nodes, 3 phases, O(n²) messages (view change
// O(n³): every replica's view-change carries O(n) certificates and the
// new-view redistributes them).
//
// Byzantine behaviour is injected from outside via runner interceptors
// (equivocation, corruption, silence); the replica logic itself defends
// with digest checks and quorum counting.
package pbft

import (
	"fmt"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/core"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:                 "pbft",
		Synchrony:            core.PartiallySynchronous,
		Failure:              core.Byzantine,
		Strategy:             core.Pessimistic,
		Awareness:            core.KnownParticipants,
		NodesFor:             func(f int) int { return quorum.Byzantine{F: f}.Size() },
		NodesFormula:         "3f+1",
		QuorumFor:            func(f int) int { return quorum.Byzantine{F: f}.Threshold() },
		CommitPhases:         3,
		Complexity:           core.Quadratic,
		ViewChangeComplexity: core.Cubic,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "pre-prepare/prepare/commit; checkpoints every K slots",
	})
	core.Register(core.Profile{
		Name:      "upright",
		Synchrony: core.PartiallySynchronous,
		Failure:   core.Hybrid,
		Strategy:  core.Pessimistic,
		Awareness: core.KnownParticipants,
		// Profiles are one-parameter, UpRight's budget is the pair (m, c):
		// the registry reports the pure-byzantine degenerate (c=0) so its
		// single-parameter arithmetic stays meaningful. The canonical
		// 3m+2c+1 is checked in the quorum package, hybrid_test.go and T4.
		NodesFor:             func(f int) int { return quorum.Hybrid{M: f}.Size() },
		NodesFormula:         "3m+2c+1",
		QuorumFor:            func(f int) int { return quorum.Hybrid{M: f}.Threshold() },
		CommitPhases:         3,
		Complexity:           core.Quadratic,
		ViewChangeComplexity: core.Quadratic,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "hybrid m byzantine + c crash; quorum 2m+c+1 of 3m+2c+1",
	})
}

// MsgKind enumerates PBFT message types.
type MsgKind uint8

const (
	MsgRequest MsgKind = iota + 1
	MsgPrePrepare
	MsgPrepare
	MsgCommit
	MsgCheckpoint
	MsgViewChange
	MsgNewView
	MsgFetch     // lagging replica asks for missing committed slots
	MsgFetchResp // peer returns its committed slots in the window
)

func (k MsgKind) String() string {
	switch k {
	case MsgRequest:
		return "request"
	case MsgPrePrepare:
		return "pre-prepare"
	case MsgPrepare:
		return "prepare"
	case MsgCommit:
		return "commit"
	case MsgCheckpoint:
		return "checkpoint"
	case MsgViewChange:
		return "view-change"
	case MsgNewView:
		return "new-view"
	case MsgFetch:
		return "fetch"
	case MsgFetchResp:
		return "fetch-resp"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// PreparedProof certifies one slot prepared in some view (carried in
// view-change messages).
type PreparedProof struct {
	Seq    types.Seq
	View   types.View
	Digest chaincrypto.Digest
	Req    types.Value
}

// Message is a PBFT wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	View     types.View
	Seq      types.Seq
	Digest   chaincrypto.Digest
	Req      types.Value

	// Checkpoint
	StateDigest chaincrypto.Digest

	// ViewChange
	LastStable types.Seq
	Prepared   []PreparedProof

	// NewView: the pre-prepares the new primary re-issues.
	NewViewPP []PreparedProof

	// FetchResp: committed slots in the requested window.
	Slots []PreparedProof
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config tunes a replica. The cluster size is not a setting: it is
// Quorums().Size().
type Config struct {
	// F is the tolerated byzantine faults (UpRight's m).
	F int
	// C is the crash faults tolerated on top of F. Zero is PBFT; above
	// zero the replicas run UpRight's hybrid quorums.
	C int
	// CheckpointEvery triggers a checkpoint each K executed slots.
	// Default 16.
	CheckpointEvery int
	// RequestTimeout is how long an accepted-but-unexecuted request may
	// age before the replica votes to change views. Default 60.
	RequestTimeout int
}

// Quorums is the quorum system every threshold is read from: network
// 3F+2C+1, quorum 2F+C+1, intersection F+1.
func (c Config) Quorums() quorum.Hybrid { return quorum.Hybrid{M: c.F, C: c.C} }

func (c Config) withDefaults() Config {
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60
	}
	return c
}

// slot tracks one sequence number's progress through the three phases.
type slot struct {
	digest       chaincrypto.Digest
	req          types.Value
	prePrepared  bool
	prepares     *quorum.Tally
	commits      *quorum.Tally
	prepared     bool
	committed    bool
	preparedView types.View
}

// Replica is one PBFT node.
type Replica struct {
	id  types.NodeID
	cfg Config
	q   quorum.Hybrid // cfg.Quorums()
	now int

	view       types.View
	seqCounter types.Seq // primary's next sequence number
	slots      map[types.Seq]*slot
	executed   types.Seq // contiguous execution frontier
	decisions  []types.Decision
	// archive keeps every executed value for straggler catch-up. A
	// production deployment transfers checkpointed application snapshots
	// below the stable checkpoint instead of raw history; retaining the
	// decision log plays that role at simulation scale.
	archive map[types.Seq]types.Value

	// Pending requests: digest → (req, firstSeen) for timeout tracking.
	pending map[chaincrypto.Digest]pendingReq
	// Requests already executed (digest set) for client-retry dedup.
	done map[chaincrypto.Digest]bool

	// Checkpoints.
	lastStable  types.Seq
	checkpoints map[types.Seq]*quorum.ValueTally

	// View change.
	viewChanging bool
	targetView   types.View
	vcDeadline   int // escalate to the next view if this one stalls
	vcVotes      map[types.View]map[types.NodeID]Message

	// Catch-up: per-slot digest votes from fetch responses; a slot is
	// adopted once f+1 distinct peers (a weak certificate) report the
	// same content.
	fetchVotes map[types.Seq]*quorum.ValueTally
	fetchVals  map[string]types.Value
	lastFetch  int

	// metrics
	viewChanges int

	out []Message
}

// NewReplica builds replica id of a cfg.Quorums().Size() cluster.
func NewReplica(id types.NodeID, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	return &Replica{
		id:          id,
		cfg:         cfg,
		q:           cfg.Quorums(),
		slots:       make(map[types.Seq]*slot),
		pending:     make(map[chaincrypto.Digest]pendingReq),
		done:        make(map[chaincrypto.Digest]bool),
		checkpoints: make(map[types.Seq]*quorum.ValueTally),
		vcVotes:     make(map[types.View]map[types.NodeID]Message),
		fetchVotes:  make(map[types.Seq]*quorum.ValueTally),
		fetchVals:   make(map[string]types.Value),
		archive:     make(map[types.Seq]types.Value),
	}
}

type pendingReq struct {
	req   types.Value
	since int
}

func (r *Replica) primary() types.NodeID { return r.view.Primary(r.q.Size()) }

// IsPrimary reports whether this replica currently leads.
func (r *Replica) IsPrimary() bool { return r.primary() == r.id }

// ExecutedFrontier returns the contiguous execution frontier.
func (r *Replica) ExecutedFrontier() types.Seq { return r.executed }

// TakeDecisions drains executed (slot, value) pairs in order.
func (r *Replica) TakeDecisions() []types.Decision {
	d := r.decisions
	r.decisions = nil
	return d
}

func (r *Replica) send(m Message) {
	m.From = r.id
	r.out = append(r.out, m)
}

func (r *Replica) broadcast(m Message) {
	for i := 0; i < r.q.Size(); i++ {
		p := types.NodeID(i)
		if p == r.id {
			continue
		}
		mm := m
		mm.To = p
		r.send(mm)
	}
}

// Submit hands a client request to this replica. Non-primaries relay it
// to the primary and start the view-change timer — the defense against a
// primary that silently drops requests.
func (r *Replica) Submit(req types.Value) {
	r.Step(Message{Kind: MsgRequest, From: r.id, To: r.id, Req: req})
}

func (r *Replica) getSlot(seq types.Seq) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{
			prepares: quorum.NewTally(r.q.Threshold() - 1), // excludes primary's implicit prepare
			commits:  quorum.NewTally(r.q.Threshold()),
		}
		r.slots[seq] = s
	}
	return s
}

// Step consumes one delivered message.
func (r *Replica) Step(m Message) {
	switch m.Kind {
	case MsgRequest:
		r.onRequest(m)
	case MsgPrePrepare:
		r.onPrePrepare(m)
	case MsgPrepare:
		r.onPrepare(m)
	case MsgCommit:
		r.onCommit(m)
	case MsgCheckpoint:
		r.onCheckpoint(m)
	case MsgViewChange:
		r.onViewChange(m)
	case MsgNewView:
		r.onNewView(m)
	case MsgFetch:
		r.onFetch(m)
	case MsgFetchResp:
		r.onFetchResp(m)
	}
}

func (r *Replica) onRequest(m Message) {
	d := chaincrypto.Hash(m.Req)
	if r.done[d] {
		return
	}
	first := false
	if _, ok := r.pending[d]; !ok {
		r.pending[d] = pendingReq{req: m.Req, since: r.now}
		first = true
	}
	if r.IsPrimary() && !r.viewChanging {
		r.assign(m.Req, d)
		return
	}
	// First sight of a request at a backup: flood it so that *every*
	// replica arms its timer against the primary (the paper's clients
	// broadcast to all replicas when the primary stalls; flooding one
	// hop reproduces that without modelling client retries).
	if first {
		r.broadcast(Message{Kind: MsgRequest, Req: m.Req})
	}
}

// assign is the primary's ordering step: allocate the next sequence
// number and multicast pre-prepare.
func (r *Replica) assign(req types.Value, d chaincrypto.Digest) {
	// Don't double-assign the same request.
	for _, s := range r.slots {
		if s.digest == d && s.prePrepared {
			return
		}
	}
	r.seqCounter++
	seq := r.seqCounter
	s := r.getSlot(seq)
	s.digest = d
	s.req = req
	s.prePrepared = true
	s.preparedView = r.view
	r.broadcast(Message{Kind: MsgPrePrepare, View: r.view, Seq: seq, Digest: d, Req: req})
	// The primary counts as pre-prepared+prepared for its own slot.
	r.maybePrepared(seq, s)
}

func (r *Replica) onPrePrepare(m Message) {
	if m.View != r.view || m.From != r.primary() || r.viewChanging {
		return
	}
	if chaincrypto.Hash(m.Req) != m.Digest {
		return // corrupted or equivocating primary payload
	}
	s := r.getSlot(m.Seq)
	if s.prePrepared && s.digest != m.Digest {
		// Primary equivocation detected: refuse the second assignment
		// and push for a view change.
		r.startViewChange(r.view + 1)
		return
	}
	if m.Seq <= r.lastStable {
		return
	}
	s.digest = m.Digest
	s.req = m.Req
	s.prePrepared = true
	s.preparedView = m.View
	if _, ok := r.pending[m.Digest]; !ok && !r.done[m.Digest] {
		r.pending[m.Digest] = pendingReq{req: m.Req, since: r.now}
	}
	s.prepares.Add(r.id) // own prepare counts toward the 2f
	r.broadcast(Message{Kind: MsgPrepare, View: r.view, Seq: m.Seq, Digest: m.Digest})
	r.maybePrepared(m.Seq, s)
}

func (r *Replica) onPrepare(m Message) {
	if m.View != r.view || r.viewChanging {
		return
	}
	s := r.getSlot(m.Seq)
	if s.prePrepared && s.digest != m.Digest {
		return // prepare for a different assignment: ignore
	}
	s.prepares.Add(m.From)
	r.maybePrepared(m.Seq, s)
}

// maybePrepared fires when the slot holds a pre-prepare plus 2f matching
// prepares: the replica multicasts commit.
func (r *Replica) maybePrepared(seq types.Seq, s *slot) {
	if s.prepared || !s.prePrepared {
		return
	}
	need := r.q.Threshold() - 1 // 2f prepares + the pre-prepare itself
	have := s.prepares.Count()
	if r.IsPrimary() {
		have++ // primary's pre-prepare doubles as its prepare
	}
	if have < need {
		return
	}
	s.prepared = true
	s.commits.Add(r.id)
	r.broadcast(Message{Kind: MsgCommit, View: r.view, Seq: seq, Digest: s.digest})
	r.maybeCommitted(seq, s)
}

func (r *Replica) onCommit(m Message) {
	if m.View != r.view || r.viewChanging {
		return
	}
	s := r.getSlot(m.Seq)
	if s.prePrepared && s.digest != m.Digest {
		return
	}
	s.commits.Add(m.From)
	r.maybeCommitted(m.Seq, s)
}

// maybeCommitted fires at 2f+1 commits: the slot is committed-local and
// executes once all lower slots have.
func (r *Replica) maybeCommitted(seq types.Seq, s *slot) {
	if s.committed || !s.prepared || !s.commits.Reached() {
		return
	}
	s.committed = true
	r.executeReady()
}

func (r *Replica) executeReady() {
	for {
		s, ok := r.slots[r.executed+1]
		if !ok || !s.committed {
			return
		}
		r.executed++
		r.decisions = append(r.decisions, types.Decision{Slot: r.executed, Val: s.req})
		r.archive[r.executed] = s.req
		delete(r.pending, s.digest)
		r.done[s.digest] = true
		if r.executed%types.Seq(r.cfg.CheckpointEvery) == 0 {
			r.broadcastCheckpoint(r.executed)
		}
	}
}

func (r *Replica) broadcastCheckpoint(seq types.Seq) {
	// The state digest in a real deployment hashes the application
	// state; here the executed frontier identifies it (all replicas
	// execute identical prefixes, enforced by tests).
	d := chaincrypto.Hash(chaincrypto.HashUint64(uint64(seq)))
	r.onCheckpointVote(seq, d, r.id)
	r.broadcast(Message{Kind: MsgCheckpoint, Seq: seq, StateDigest: d})
}

func (r *Replica) onCheckpoint(m Message) {
	r.onCheckpointVote(m.Seq, m.StateDigest, m.From)
	// Evidence of a committed frontier beyond ours: ask peers for the
	// missing slots (rate-limited; responses need f+1 matching copies).
	const fetchEvery = 10 // ticks between fetch rounds
	if m.Seq > r.executed && (r.lastFetch == 0 || r.now-r.lastFetch > fetchEvery) {
		r.lastFetch = r.now
		r.broadcast(Message{Kind: MsgFetch, Seq: r.executed + 1})
	}
}

// onFetch returns the executed slots a straggler is missing, from the
// decision archive (the simulation's stand-in for checkpointed state
// transfer).
func (r *Replica) onFetch(m Message) {
	var slots []PreparedProof
	for seq := m.Seq; seq <= r.executed && len(slots) < 64; seq++ {
		req, ok := r.archive[seq]
		if !ok {
			continue
		}
		slots = append(slots, PreparedProof{Seq: seq, Digest: chaincrypto.Hash(req), Req: req})
	}
	if len(slots) > 0 {
		r.send(Message{Kind: MsgFetchResp, To: m.From, Slots: slots})
	}
}

// onFetchResp adopts a missing slot once f+1 distinct peers vouch for
// identical content — at least one of them is correct, and a correct
// replica only reports slots it committed.
func (r *Replica) onFetchResp(m Message) {
	for _, p := range m.Slots {
		if p.Seq <= r.executed {
			continue
		}
		if chaincrypto.Hash(p.Req) != p.Digest {
			continue
		}
		vt, ok := r.fetchVotes[p.Seq]
		if !ok {
			vt = quorum.NewValueTally(r.q.Intersection())
			r.fetchVotes[p.Seq] = vt
		}
		key := p.Digest.String()
		r.fetchVals[key] = p.Req
		if vt.Add(m.From, key) {
			s := r.getSlot(p.Seq)
			if !s.committed {
				s.digest = p.Digest
				s.req = r.fetchVals[key]
				s.prePrepared = true
				s.prepared = true
				s.committed = true
				delete(r.fetchVotes, p.Seq)
				r.executeReady()
			}
		}
	}
}

func (r *Replica) onCheckpointVote(seq types.Seq, d chaincrypto.Digest, from types.NodeID) {
	if seq <= r.lastStable {
		return
	}
	vt, ok := r.checkpoints[seq]
	if !ok {
		vt = quorum.NewValueTally(r.q.Threshold())
		r.checkpoints[seq] = vt
	}
	if vt.Add(from, d.String()) {
		// Stable: garbage-collect below.
		r.lastStable = seq
		for s := range r.slots {
			if s <= seq {
				delete(r.slots, s)
			}
		}
		for s := range r.checkpoints {
			if s <= seq {
				delete(r.checkpoints, s)
			}
		}
	}
}

// startViewChange abandons the current view and votes for target.
func (r *Replica) startViewChange(target types.View) {
	if target <= r.view {
		return
	}
	r.viewChanging = true
	r.viewChanges++
	r.targetView = target
	r.vcDeadline = r.now + 2*r.cfg.RequestTimeout
	var proofs []PreparedProof
	for _, seq := range det.SortedKeys(r.slots) {
		if s := r.slots[seq]; s.prepared && seq > r.lastStable {
			proofs = append(proofs, PreparedProof{
				Seq: seq, View: s.preparedView, Digest: s.digest, Req: s.req,
			})
		}
	}
	vc := Message{Kind: MsgViewChange, View: target, LastStable: r.lastStable, Prepared: proofs}
	r.broadcast(vc)
	// Register own vote with the would-be primary (possibly self).
	r.recordViewChange(target, r.id, vc)
}

func (r *Replica) onViewChange(m Message) {
	if m.View <= r.view {
		return
	}
	r.recordViewChange(m.View, m.From, m)
	// Liveness rule: seeing f+1 view-changes for a higher view, join it
	// even if our own timer hasn't fired.
	if len(r.vcVotes[m.View]) >= r.q.Intersection() && (!r.viewChanging || r.targetView < m.View) {
		r.startViewChange(m.View)
	}
}

func (r *Replica) recordViewChange(v types.View, from types.NodeID, m Message) {
	votes, ok := r.vcVotes[v]
	if !ok {
		votes = make(map[types.NodeID]Message)
		r.vcVotes[v] = votes
	}
	if _, dup := votes[from]; dup {
		return
	}
	votes[from] = m
	// The new primary assembles NEW-VIEW at 2f+1 view-change votes.
	if v.Primary(r.q.Size()) == r.id && len(votes) >= r.q.Threshold() {
		r.emitNewView(v, votes)
	}
}

func (r *Replica) emitNewView(v types.View, votes map[types.NodeID]Message) {
	if r.view >= v {
		return
	}
	// Merge prepared proofs: highest view wins per sequence.
	merged := make(map[types.Seq]PreparedProof)
	maxStable := types.Seq(0)
	for _, vc := range votes {
		if vc.LastStable > maxStable {
			maxStable = vc.LastStable
		}
		for _, p := range vc.Prepared {
			if cur, ok := merged[p.Seq]; !ok || cur.View < p.View {
				merged[p.Seq] = p
			}
		}
	}
	// Re-issue pre-prepares for every prepared slot above the stable
	// checkpoint; fill gaps with no-ops so execution can't stall.
	maxSeq := maxStable
	for seq := range merged {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	var pps []PreparedProof
	for seq := maxStable + 1; seq <= maxSeq; seq++ {
		if p, ok := merged[seq]; ok {
			pps = append(pps, PreparedProof{Seq: seq, View: v, Digest: p.Digest, Req: p.Req})
		} else {
			noop := types.Value(nil)
			pps = append(pps, PreparedProof{Seq: seq, View: v, Digest: chaincrypto.Hash(noop), Req: noop})
		}
	}
	r.enterView(v)
	r.seqCounter = maxSeq
	nv := Message{Kind: MsgNewView, View: v, NewViewPP: pps}
	r.broadcast(nv)
	r.applyNewView(v, pps)
	// Re-propose pending client requests that didn't survive.
	r.reproposePending()
}

func (r *Replica) onNewView(m Message) {
	if m.View < r.view || m.From != m.View.Primary(r.q.Size()) {
		return
	}
	r.enterView(m.View)
	r.applyNewView(m.View, m.NewViewPP)
	// Followers re-announce pending requests to the new primary, in
	// digest order so every replica replays them identically.
	for _, d := range det.SortedKeysFunc(r.pending, chaincrypto.Digest.Compare) {
		r.send(Message{Kind: MsgRequest, To: r.primary(), Req: r.pending[d].req})
	}
}

func (r *Replica) enterView(v types.View) {
	r.view = v
	r.viewChanging = false
	// Reset per-view phase state for uncommitted slots.
	//lint:allow maporder per-slot reset touches only that slot's tallies; no cross-slot state or emission
	for _, s := range r.slots {
		if !s.committed {
			s.prePrepared = false
			s.prepared = false
			s.prepares = quorum.NewTally(r.q.Threshold() - 1)
			s.commits = quorum.NewTally(r.q.Threshold())
		}
	}
	for view := range r.vcVotes {
		if view <= v {
			delete(r.vcVotes, view)
		}
	}
	// Refresh timers so the new view gets a full timeout window.
	for d, p := range r.pending {
		p.since = r.now
		r.pending[d] = p
	}
}

func (r *Replica) applyNewView(v types.View, pps []PreparedProof) {
	for _, pp := range pps {
		if pp.Seq <= r.lastStable {
			continue
		}
		if pp.Seq > r.seqCounter {
			r.seqCounter = pp.Seq
		}
		s := r.getSlot(pp.Seq)
		if s.committed {
			continue
		}
		s.digest = pp.Digest
		s.req = pp.Req
		s.prePrepared = true
		s.preparedView = v
		if !r.IsPrimary() {
			s.prepares.Add(r.id)
			r.broadcast(Message{Kind: MsgPrepare, View: v, Seq: pp.Seq, Digest: pp.Digest})
		}
		r.maybePrepared(pp.Seq, s)
	}
}

func (r *Replica) reproposePending() {
	if !r.IsPrimary() {
		return
	}
	for _, d := range det.SortedKeysFunc(r.pending, chaincrypto.Digest.Compare) {
		assigned := false
		for _, s := range r.slots {
			if s.digest == d && s.prePrepared {
				assigned = true
				break
			}
		}
		if !assigned {
			r.assign(r.pending[d].req, d)
		}
	}
}

// Tick ages pending requests; a request stuck past the timeout triggers
// a view change against the presumed-faulty primary.
func (r *Replica) Tick() {
	r.now++
	if r.viewChanging {
		// A stalled view change escalates: the next primary may be
		// faulty too.
		if r.now > r.vcDeadline {
			r.startViewChange(r.targetView + 1)
		}
		return
	}
	//lint:allow maporder any timed-out request triggers the same single view change; which one fires first is immaterial
	for _, p := range r.pending {
		if r.now-p.since > r.cfg.RequestTimeout {
			r.startViewChange(r.view + 1)
			return
		}
	}
}

// Drain returns pending outbound messages.
func (r *Replica) Drain() []Message {
	out := r.out
	r.out = nil
	return out
}
