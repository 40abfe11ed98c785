// Package xft implements XFT / XPaxos (Liu et al., OSDI 2016) as the
// paper presents it: a protocol for the space *between* crash fault
// tolerance and full BFT. The network has only 2f+1 replicas, where the
// budget f jointly covers crashed, byzantine, and partitioned replicas.
// Safety holds whenever the system is not in *anarchy* — anarchy means
// some machine is byzantine (m > 0) AND the combined fault count
// exceeds f (the paper's "Failures and Anarchy" slide).
//
// Operation is active/passive: each view designates a synchronous group
// of f+1 replicas (leader + f followers) that replicate requests with a
// two-phase prepare/commit exchange requiring *all* group members; the
// remaining f replicas stay passive and receive lazy state updates. Any
// suspected group member triggers a view change that installs the next
// group (views enumerate group combinations round-robin) and transfers
// state from f+1 replicas — any two f+1 sets of 2f+1 intersect, so no
// committed entry is lost.
//
// Profile: partially-synchronous (sync-group model), hybrid, optimistic,
// known participants, 2f+1 nodes, 2 phases, O(f) messages per request.
package xft

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
		Name:                 "xft",
		Synchrony:            core.PartiallySynchronous,
		Failure:              core.Hybrid,
		Strategy:             core.Optimistic,
		Awareness:            core.KnownParticipants,
		NodesFor:             func(f int) int { return quorum.MajorityFor(f).Size() },
		NodesFormula:         "2f+1",
		QuorumFor:            func(f int) int { return f + 1 },
		CommitPhases:         2,
		Complexity:           core.Linear,
		ViewChangeComplexity: core.Quadratic,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "synchronous groups of f+1; safety outside anarchy (m>0 ∧ faults>f)",
	})
}

// MsgKind enumerates XFT message types.
type MsgKind uint8

const (
	MsgRequest MsgKind = iota + 1
	MsgPrepare
	MsgCommit
	MsgUpdate     // active → passive lazy replication
	MsgSuspect    // replica demands a view change
	MsgViewChange // log report to the new group's leader
	MsgNewView    // merged log installation
)

func (k MsgKind) String() string {
	switch k {
	case MsgRequest:
		return "request"
	case MsgPrepare:
		return "prepare"
	case MsgCommit:
		return "commit"
	case MsgUpdate:
		return "update"
	case MsgSuspect:
		return "suspect"
	case MsgViewChange:
		return "view-change"
	case MsgNewView:
		return "new-view"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Entry is one log slot in state transfer.
type Entry struct {
	Seq       types.Seq
	Req       types.Value
	Committed bool
}

// Message is an XFT wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	View     types.View
	Seq      types.Seq
	Digest   chaincrypto.Digest
	Req      types.Value
	Entries  []Entry
	Executed types.Seq
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config tunes a replica.
type Config struct {
	F int
}

func (c Config) n() int { return quorum.MajorityFor(c.F).Size() }

// requestTimeout ages stuck slots/requests toward suspicion.
const requestTimeout = 40

type slot struct {
	req       types.Value
	digest    chaincrypto.Digest
	commits   *quorum.Tally
	committed bool
	started   int
}

// Replica is one XFT node.
type Replica struct {
	id  types.NodeID
	cfg Config
	now int

	view      types.View
	seq       types.Seq
	slots     map[types.Seq]*slot
	exec      types.Seq
	decisions []types.Decision

	pending map[chaincrypto.Digest]pend
	done    map[chaincrypto.Digest]bool

	suspects map[types.View]*quorum.Tally
	vcLogs   map[types.View]map[types.NodeID]Message
	changing bool
	vcSince  int
	vcTarget types.View

	out []Message
}

type pend struct {
	req   types.Value
	since int
}

// NewReplica builds replica id of a 2f+1 cluster.
func NewReplica(id types.NodeID, cfg Config) *Replica {
	return &Replica{
		id:       id,
		cfg:      cfg,
		slots:    make(map[types.Seq]*slot),
		pending:  make(map[chaincrypto.Digest]pend),
		done:     make(map[chaincrypto.Digest]bool),
		suspects: make(map[types.View]*quorum.Tally),
		vcLogs:   make(map[types.View]map[types.NodeID]Message),
	}
}

// Group returns view v's synchronous group: f+1 consecutive replicas
// starting at v mod n.
func (r *Replica) Group(v types.View) []types.NodeID {
	ids := make([]types.NodeID, 0, r.cfg.F+1)
	for i := 0; i <= r.cfg.F; i++ {
		ids = append(ids, types.NodeID((int(v)+i)%r.cfg.n()))
	}
	return ids
}

// Leader returns view v's leader.
func (r *Replica) Leader(v types.View) types.NodeID { return v.Primary(r.cfg.n()) }

// InGroup reports whether id belongs to view v's synchronous group.
func (r *Replica) InGroup(id types.NodeID, v types.View) bool {
	for _, g := range r.Group(v) {
		if g == id {
			return true
		}
	}
	return false
}

// IsLeader reports whether this replica leads the current view.
func (r *Replica) IsLeader() bool { return r.Leader(r.view) == r.id }

// ExecutedFrontier returns the contiguous executed frontier.
func (r *Replica) ExecutedFrontier() types.Seq { return r.exec }

// TakeDecisions drains executed decisions in order.
func (r *Replica) TakeDecisions() []types.Decision {
	d := r.decisions
	r.decisions = nil
	return d
}

func (r *Replica) send(m Message) {
	m.From = r.id
	r.out = append(r.out, m)
}

func (r *Replica) sendAll(m Message, to []types.NodeID) {
	for _, t := range to {
		if t == r.id {
			continue
		}
		mm := m
		mm.To = t
		r.send(mm)
	}
}

func (r *Replica) everyone() []types.NodeID {
	ids := make([]types.NodeID, r.cfg.n())
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	return ids
}

func (r *Replica) passives() []types.NodeID {
	var ids []types.NodeID
	for i := 0; i < r.cfg.n(); i++ {
		if !r.InGroup(types.NodeID(i), r.view) {
			ids = append(ids, types.NodeID(i))
		}
	}
	return ids
}

// Submit hands a client request to this replica.
func (r *Replica) Submit(req types.Value) {
	r.Step(Message{Kind: MsgRequest, From: r.id, To: r.id, Req: req})
}

func (r *Replica) getSlot(seq types.Seq) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{commits: quorum.NewTally(r.cfg.F + 1), started: r.now}
		r.slots[seq] = s
	}
	return s
}

// Step consumes one delivered message.
func (r *Replica) Step(m Message) {
	switch m.Kind {
	case MsgRequest:
		r.onRequest(m)
	case MsgPrepare:
		r.onPrepare(m)
	case MsgCommit:
		r.onCommit(m)
	case MsgUpdate:
		r.onUpdate(m)
	case MsgSuspect:
		r.onSuspect(m)
	case MsgViewChange:
		r.onViewChange(m)
	case MsgNewView:
		r.onNewView(m)
	}
}

func (r *Replica) onRequest(m Message) {
	d := chaincrypto.Hash(m.Req)
	if r.done[d] {
		return
	}
	first := false
	if _, ok := r.pending[d]; !ok {
		r.pending[d] = pend{req: m.Req.Clone(), since: r.now}
		first = true
	}
	if r.IsLeader() && !r.changing {
		r.prepare(m.Req, d)
		return
	}
	if first {
		r.sendAll(Message{Kind: MsgRequest, Req: m.Req.Clone()}, r.everyone())
	}
}

func (r *Replica) prepare(req types.Value, d chaincrypto.Digest) {
	for _, s := range r.slots {
		if s.digest == d && s.req != nil {
			return
		}
	}
	r.seq++
	s := r.getSlot(r.seq)
	s.req = req.Clone()
	s.digest = d
	s.started = r.now
	s.commits.Add(r.id)
	r.sendAll(Message{Kind: MsgPrepare, View: r.view, Seq: r.seq, Digest: d, Req: req.Clone()}, r.Group(r.view))
	r.maybeCommit(r.seq, s)
}

func (r *Replica) onPrepare(m Message) {
	if m.View != r.view || m.From != r.Leader(r.view) || r.changing {
		return
	}
	if !r.InGroup(r.id, r.view) {
		return
	}
	if chaincrypto.Hash(m.Req) != m.Digest {
		return
	}
	s := r.getSlot(m.Seq)
	if s.req != nil && s.digest != m.Digest {
		r.suspect(r.view + 1) // leader equivocation within the group
		return
	}
	s.req = m.Req.Clone()
	s.digest = m.Digest
	s.started = r.now
	s.commits.Add(m.From)
	s.commits.Add(r.id)
	delete(r.pending, m.Digest)
	if m.Seq > r.seq {
		r.seq = m.Seq
	}
	r.sendAll(Message{Kind: MsgCommit, View: r.view, Seq: m.Seq, Digest: m.Digest, Req: m.Req.Clone()}, r.Group(r.view))
	r.maybeCommit(m.Seq, s)
}

func (r *Replica) onCommit(m Message) {
	if m.View != r.view || r.changing || !r.InGroup(m.From, r.view) || !r.InGroup(r.id, r.view) {
		return
	}
	s := r.getSlot(m.Seq)
	if s.req == nil {
		s.req = m.Req.Clone()
		s.digest = m.Digest
	}
	if s.digest != m.Digest {
		return
	}
	s.commits.Add(m.From)
	r.maybeCommit(m.Seq, s)
}

// maybeCommit requires the whole synchronous group (f+1 of f+1).
func (r *Replica) maybeCommit(seq types.Seq, s *slot) {
	if s.committed || s.req == nil || !s.commits.Reached() {
		return
	}
	s.committed = true
	r.executeReady()
}

func (r *Replica) executeReady() {
	for {
		s, ok := r.slots[r.exec+1]
		if !ok || !s.committed {
			return
		}
		r.exec++
		r.decisions = append(r.decisions, types.Decision{Slot: r.exec, Val: s.req})
		r.done[s.digest] = true
		delete(r.pending, s.digest)
		if r.IsLeader() {
			r.sendAll(Message{
				Kind: MsgUpdate, View: r.view, Seq: r.exec,
				Entries: []Entry{{Seq: r.exec, Req: s.req.Clone(), Committed: true}},
			}, r.passives())
		}
	}
}

// onUpdate applies lazy replication at passive replicas.
func (r *Replica) onUpdate(m Message) {
	if m.From != r.Leader(m.View) || r.InGroup(r.id, m.View) {
		return
	}
	for _, e := range m.Entries {
		if e.Seq != r.exec+1 {
			continue
		}
		s := r.getSlot(e.Seq)
		s.req = e.Req.Clone()
		s.digest = chaincrypto.Hash(e.Req)
		s.committed = true
		r.executeReady()
	}
}

// suspect votes to replace the current synchronous group.
func (r *Replica) suspect(target types.View) {
	if target <= r.view {
		return
	}
	if r.changing && target <= r.vcTarget {
		return
	}
	r.changing = true
	r.vcTarget = target
	r.vcSince = r.now
	r.sendAll(Message{Kind: MsgSuspect, View: target}, r.everyone())
	r.sendViewChange(target)
}

// sendViewChange reports this replica's log to the new view's leader.
func (r *Replica) sendViewChange(target types.View) {
	entries := make([]Entry, 0, len(r.slots))
	for _, seq := range det.SortedKeys(r.slots) {
		if s := r.slots[seq]; seq > 0 && s.req != nil {
			entries = append(entries, Entry{Seq: seq, Req: s.req.Clone(), Committed: s.committed || seq <= r.exec})
		}
	}
	vc := Message{Kind: MsgViewChange, View: target, Executed: r.exec, Entries: entries}
	lead := r.Leader(target)
	if lead == r.id {
		r.recordVC(target, r.id, vc)
	} else {
		vc.To = lead
		r.send(vc)
	}
}

func (r *Replica) onSuspect(m Message) {
	if m.View <= r.view {
		return
	}
	t, ok := r.suspects[m.View]
	if !ok {
		t = quorum.NewTally(1)
		r.suspects[m.View] = t
	}
	t.Add(m.From)
	// Any single suspicion suffices to join: a lone byzantine replica
	// can at worst force rotation to the next group, not break safety.
	r.suspect(m.View)
}

func (r *Replica) onViewChange(m Message) {
	if m.View <= r.view || r.Leader(m.View) != r.id {
		return
	}
	r.recordVC(m.View, m.From, m)
}

func (r *Replica) recordVC(v types.View, from types.NodeID, m Message) {
	logs, ok := r.vcLogs[v]
	if !ok {
		logs = make(map[types.NodeID]Message)
		r.vcLogs[v] = logs
	}
	if _, dup := logs[from]; dup {
		return
	}
	logs[from] = m
	// State transfer needs f+1 logs: every committed entry lives on all
	// f+1 members of some former group, which intersects any f+1 set.
	if len(logs) >= r.cfg.F+1 {
		r.installView(v, logs)
	}
}

func (r *Replica) installView(v types.View, logs map[types.NodeID]Message) {
	if r.view >= v {
		return
	}
	maxExec := types.Seq(0)
	merged := make(map[types.Seq]Entry)
	for _, vc := range logs {
		if vc.Executed > maxExec {
			maxExec = vc.Executed
		}
		for _, e := range vc.Entries {
			cur, ok := merged[e.Seq]
			if !ok || (e.Committed && !cur.Committed) {
				merged[e.Seq] = e
			}
		}
	}
	seqs := det.SortedKeys(merged)
	entries := make([]Entry, 0, len(seqs))
	for _, s := range seqs {
		entries = append(entries, merged[s])
	}
	r.sendAll(Message{Kind: MsgNewView, View: v, Executed: maxExec, Entries: entries}, r.everyone())
	r.applyNewView(v, entries)
}

func (r *Replica) onNewView(m Message) {
	if m.View < r.view || m.From != r.Leader(m.View) {
		return
	}
	r.applyNewView(m.View, m.Entries)
}

func (r *Replica) applyNewView(v types.View, entries []Entry) {
	if v < r.view {
		return
	}
	r.view = v
	r.changing = false
	for view := range r.suspects {
		if view <= v {
			delete(r.suspects, view)
		}
	}
	for view := range r.vcLogs {
		if view <= v {
			delete(r.vcLogs, view)
		}
	}
	// Adopt transferred state: committed entries install directly;
	// uncommitted ones return to pending for re-ordering.
	for _, e := range entries {
		s := r.getSlot(e.Seq)
		if s.committed {
			continue
		}
		s.req = e.Req.Clone()
		s.digest = chaincrypto.Hash(e.Req)
		if e.Committed {
			s.committed = true
		} else {
			delete(r.slots, e.Seq)
			if !r.done[s.digest] {
				r.pending[s.digest] = pend{req: s.req, since: r.now}
			}
		}
	}
	r.executeReady()
	r.seq = r.exec
	for seq, s := range r.slots {
		if s.committed && seq > r.seq {
			r.seq = seq
		} else if !s.committed {
			delete(r.slots, seq)
			if s.req != nil && !r.done[s.digest] {
				r.pending[s.digest] = pend{req: s.req, since: r.now}
			}
		}
	}
	for d, p := range r.pending {
		p.since = r.now
		r.pending[d] = p
	}
	if r.IsLeader() {
		for _, d := range det.SortedKeysFunc(r.pending, chaincrypto.Digest.Compare) {
			r.prepare(r.pending[d].req, d)
		}
	} else if lead := r.Leader(v); lead != r.id {
		for _, d := range det.SortedKeysFunc(r.pending, chaincrypto.Digest.Compare) {
			r.send(Message{Kind: MsgRequest, To: lead, Req: r.pending[d].req.Clone()})
		}
	}
}

// Tick ages stuck work toward suspicion.
func (r *Replica) Tick() {
	r.now++
	if r.changing {
		if r.now-r.vcSince > 2*requestTimeout {
			r.suspect(r.vcTarget + 1) // next group may be faulty too
		}
		return
	}
	if r.InGroup(r.id, r.view) {
		//lint:allow maporder any timed-out slot raises the same suspicion of the current view; which fires first is immaterial
		for seq, s := range r.slots {
			if seq > r.exec && s.req != nil && !s.committed && r.now-s.started > requestTimeout {
				r.suspect(r.view + 1)
				return
			}
		}
	}
	//lint:allow maporder any timed-out request raises the same suspicion of the current view; which fires first is immaterial
	for _, p := range r.pending {
		if r.now-p.since > requestTimeout {
			r.suspect(r.view + 1)
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
