// Package seemore implements SeeMoRe (Amiri et al., ICDE 2020 — the
// tutorial authors' own system): consensus for a hybrid cloud where
// nodes in the *private* cloud are trusted (crash-only) and nodes in the
// *public* cloud are untrusted (byzantine). The network has 3m+2c+1
// nodes tolerating m byzantine public nodes and c crashed private
// nodes, and runs in one of three modes:
//
//	Mode 1 — trusted primary, centralized coordination: the private
//	         primary proposes and collects replies itself. Two phases,
//	         O(n) messages, quorum 2m+c+1.
//	Mode 2 — trusted primary, decentralized coordination: the private
//	         primary proposes, but the decision round runs among 3m+1
//	         public proxies (quorum 2m+1, O(n²)), taking load off the
//	         private cloud.
//	Mode 3 — untrusted primary, decentralized coordination: a public
//	         primary proposes; proxies validate the proposal (an extra
//	         phase, since the primary may equivocate) and then decide.
//	         Three phases, O(n²), quorum 2m+1.
//
// The paper's claims reproduced by experiments: mode 1 is cheapest in
// messages; mode 2 moves the quadratic traffic into the public cloud;
// mode 3 adds one phase because the primary is untrusted — exactly the
// taxonomy's "proposal validation: centralized/decentralized" axis.
package seemore

import (
	"fmt"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/core"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:      "seemore",
		Synchrony: core.PartiallySynchronous,
		Failure:   core.Hybrid,
		Strategy:  core.Pessimistic,
		Awareness: core.KnownParticipants,
		// Single-parameter view: m=c=f (pbft's upright profile takes c=0).
		NodesFor:             func(f int) int { return quorum.Hybrid{M: f, C: f}.Size() },
		NodesFormula:         "3m+2c+1",
		QuorumFor:            func(f int) int { return quorum.Hybrid{M: f, C: f}.Threshold() },
		CommitPhases:         2,
		AltPhases:            3,
		Complexity:           core.Quadratic,
		ViewChangeComplexity: core.Quadratic,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "hybrid cloud: trusted private primary (modes 1-2) or untrusted public primary (mode 3)",
	})
}

// Mode selects the coordination strategy.
type Mode uint8

const (
	Mode1TrustedCentralized Mode = iota + 1
	Mode2TrustedDecentralized
	Mode3UntrustedDecentralized
)

func (m Mode) String() string {
	switch m {
	case Mode1TrustedCentralized:
		return "mode1-trusted-centralized"
	case Mode2TrustedDecentralized:
		return "mode2-trusted-decentralized"
	case Mode3UntrustedDecentralized:
		return "mode3-untrusted-decentralized"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// MsgKind enumerates SeeMoRe message types.
type MsgKind uint8

const (
	MsgRequest MsgKind = iota + 1
	MsgPropose         // primary → backups (all modes)
	MsgReplyOK         // backup → primary (mode 1 decision votes)
	MsgValid           // proxy ↔ proxy proposal validation (mode 3)
	MsgDecideV         // proxy ↔ proxy decision votes (modes 2, 3)
	MsgCommit          // decision broadcast to everyone
)

func (k MsgKind) String() string {
	switch k {
	case MsgRequest:
		return "request"
	case MsgPropose:
		return "propose"
	case MsgReplyOK:
		return "reply-ok"
	case MsgValid:
		return "valid"
	case MsgDecideV:
		return "decide-vote"
	case MsgCommit:
		return "commit"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Message is a SeeMoRe wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	Seq      types.Seq
	Digest   chaincrypto.Digest
	Req      types.Value
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config fixes the deployment.
type Config struct {
	M, C int  // byzantine budget (public) and crash budget (private)
	Mode Mode // coordination mode
	// Private lists the trusted (crash-only) nodes; the first c+1
	// node IDs by convention. Everything else is public.
	PrivateCount int
}

// N returns the required total 3m+2c+1.
func (c Config) N() int { return quorum.Hybrid{M: c.M, C: c.C}.Size() }

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = Mode1TrustedCentralized
	}
	if c.PrivateCount == 0 {
		// The public cloud holds the 3m+1 proxies; the remaining 2c
		// nodes form the private cloud. (With c=0 there is no private
		// cloud and only mode 3 applies.)
		c.PrivateCount = 2 * c.C
	}
	return c
}

// slot tracks one proposal.
type slot struct {
	req       types.Value
	digest    chaincrypto.Digest
	valids    *quorum.Tally
	votes     *quorum.Tally
	validated bool
	committed bool
}

// Replica is one SeeMoRe node.
type Replica struct {
	id  types.NodeID
	cfg Config

	seq       types.Seq
	slots     map[types.Seq]*slot
	exec      types.Seq
	decisions []types.Decision
	done      map[chaincrypto.Digest]bool
	commits   map[types.Seq]*quorum.ValueTally // non-proxy learning (m+1 rule)

	out []Message
}

// NewReplica builds replica id. Node IDs [0, PrivateCount) are private.
func NewReplica(id types.NodeID, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	return &Replica{
		id:      id,
		cfg:     cfg,
		slots:   make(map[types.Seq]*slot),
		done:    make(map[chaincrypto.Digest]bool),
		commits: make(map[types.Seq]*quorum.ValueTally),
	}
}

// IsPrivate reports whether a node is in the trusted private cloud.
func (r *Replica) IsPrivate(id types.NodeID) bool { return int(id) < r.cfg.PrivateCount }

// Primary returns the proposer: the first private node (modes 1-2) or
// the first public node (mode 3).
func (r *Replica) Primary() types.NodeID {
	if r.cfg.Mode == Mode3UntrustedDecentralized {
		return types.NodeID(r.cfg.PrivateCount) // first public node
	}
	return 0
}

// IsPrimary reports whether this replica proposes.
func (r *Replica) IsPrimary() bool { return r.id == r.Primary() }

// proxies returns the 3m+1 public nodes that coordinate in modes 2-3.
func (r *Replica) proxies() []types.NodeID {
	var ids []types.NodeID
	for i := r.cfg.PrivateCount; i < r.cfg.N() && len(ids) < (quorum.Byzantine{F: r.cfg.M}).Size(); i++ {
		ids = append(ids, types.NodeID(i))
	}
	return ids
}

func (r *Replica) isProxy(id types.NodeID) bool {
	for _, p := range r.proxies() {
		if p == id {
			return true
		}
	}
	return false
}

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
	ids := make([]types.NodeID, r.cfg.N())
	for i := range ids {
		ids[i] = types.NodeID(i)
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
		var needValid, needVote int
		switch r.cfg.Mode {
		case Mode1TrustedCentralized:
			needVote = quorum.Hybrid{M: r.cfg.M, C: r.cfg.C}.Threshold() // hybrid quorum incl. primary
			needValid = 0
		case Mode2TrustedDecentralized, Mode3UntrustedDecentralized:
			needVote = quorum.Byzantine{F: r.cfg.M}.Threshold() // proxy quorum
			needValid = quorum.Byzantine{F: r.cfg.M}.Threshold()
		}
		s = &slot{
			valids: quorum.NewTally(needValid),
			votes:  quorum.NewTally(needVote),
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
	case MsgPropose:
		r.onPropose(m)
	case MsgReplyOK:
		r.onReplyOK(m)
	case MsgValid:
		r.onValid(m)
	case MsgDecideV:
		r.onDecideVote(m)
	case MsgCommit:
		r.onCommitMsg(m)
	}
}

func (r *Replica) onRequest(m Message) {
	d := chaincrypto.Hash(m.Req)
	if r.done[d] {
		return
	}
	if !r.IsPrimary() {
		r.send(Message{Kind: MsgRequest, To: r.Primary(), Req: m.Req.Clone()})
		return
	}
	for _, s := range r.slots {
		if s.digest == d && s.req != nil {
			return
		}
	}
	r.seq++
	s := r.getSlot(r.seq)
	s.req = m.Req.Clone()
	s.digest = d
	switch r.cfg.Mode {
	case Mode1TrustedCentralized:
		s.votes.Add(r.id)
		r.sendAll(Message{Kind: MsgPropose, Seq: r.seq, Digest: d, Req: m.Req.Clone()}, r.everyone())
	case Mode2TrustedDecentralized:
		// The trusted primary's proposal needs no validation; proxies
		// run only the decision round.
		s.validated = true
		r.sendAll(Message{Kind: MsgPropose, Seq: r.seq, Digest: d, Req: m.Req.Clone()}, r.everyone())
	case Mode3UntrustedDecentralized:
		// The untrusted primary is itself a proxy and its proposal must
		// be validated by the others; its own validation vote travels
		// with the proposal.
		r.sendAll(Message{Kind: MsgPropose, Seq: r.seq, Digest: d, Req: m.Req.Clone()}, r.everyone())
		s.valids.Add(r.id)
		r.sendAll(Message{Kind: MsgValid, Seq: r.seq, Digest: d}, r.proxies())
	}
}

func (r *Replica) onPropose(m Message) {
	if m.From != r.Primary() {
		return
	}
	if chaincrypto.Hash(m.Req) != m.Digest {
		return
	}
	s := r.getSlot(m.Seq)
	if s.req != nil && s.digest != m.Digest {
		return // equivocation (possible in mode 3): first wins locally
	}
	s.req = m.Req.Clone()
	s.digest = m.Digest
	switch r.cfg.Mode {
	case Mode1TrustedCentralized:
		// Backups reply straight to the trusted primary.
		r.send(Message{Kind: MsgReplyOK, To: m.From, Seq: m.Seq, Digest: m.Digest})
	case Mode2TrustedDecentralized:
		s.validated = true
		if r.isProxy(r.id) {
			s.votes.Add(r.id)
			r.sendAll(Message{Kind: MsgDecideV, Seq: m.Seq, Digest: m.Digest}, r.proxies())
			r.maybeDecideProxy(m.Seq, s)
		}
	case Mode3UntrustedDecentralized:
		if r.isProxy(r.id) {
			s.valids.Add(r.id)
			r.sendAll(Message{Kind: MsgValid, Seq: m.Seq, Digest: m.Digest}, r.proxies())
			r.maybeValidated(m.Seq, s)
		}
	}
}

// onReplyOK is mode 1's decision counting at the trusted primary.
func (r *Replica) onReplyOK(m Message) {
	if r.cfg.Mode != Mode1TrustedCentralized || !r.IsPrimary() {
		return
	}
	s, ok := r.slots[m.Seq]
	if !ok || s.digest != m.Digest {
		return
	}
	if !s.votes.Add(m.From) {
		return
	}
	r.commitSlot(m.Seq, s)
	r.sendAll(Message{Kind: MsgCommit, Seq: m.Seq, Digest: s.digest, Req: s.req.Clone()}, r.everyone())
}

// onValid counts mode 3 proposal-validation votes among proxies.
func (r *Replica) onValid(m Message) {
	if r.cfg.Mode != Mode3UntrustedDecentralized || !r.isProxy(r.id) || !r.isProxy(m.From) {
		return
	}
	s := r.getSlot(m.Seq)
	if s.req != nil && s.digest != m.Digest {
		return
	}
	s.valids.Add(m.From)
	r.maybeValidated(m.Seq, s)
}

func (r *Replica) maybeValidated(seq types.Seq, s *slot) {
	if s.validated || s.req == nil || !s.valids.Reached() {
		return
	}
	s.validated = true
	s.votes.Add(r.id)
	r.sendAll(Message{Kind: MsgDecideV, Seq: seq, Digest: s.digest}, r.proxies())
	r.maybeDecideProxy(seq, s)
}

// onDecideVote counts proxy decision votes (modes 2 and 3).
func (r *Replica) onDecideVote(m Message) {
	if r.cfg.Mode == Mode1TrustedCentralized || !r.isProxy(r.id) || !r.isProxy(m.From) {
		return
	}
	s := r.getSlot(m.Seq)
	if s.req != nil && s.digest != m.Digest {
		return
	}
	s.votes.Add(m.From)
	r.maybeDecideProxy(m.Seq, s)
}

func (r *Replica) maybeDecideProxy(seq types.Seq, s *slot) {
	if s.committed || s.req == nil || !s.validated || !s.votes.Reached() {
		return
	}
	r.commitSlot(seq, s)
	// Proxies announce the decision to everyone outside the proxy set.
	var rest []types.NodeID
	for i := 0; i < r.cfg.N(); i++ {
		if !r.isProxy(types.NodeID(i)) {
			rest = append(rest, types.NodeID(i))
		}
	}
	r.sendAll(Message{Kind: MsgCommit, Seq: seq, Digest: s.digest, Req: s.req.Clone()}, rest)
}

// onCommitMsg learns a decision. Commits from the trusted primary are
// final; commits from (possibly byzantine) proxies need m+1 matching
// announcements.
func (r *Replica) onCommitMsg(m Message) {
	if chaincrypto.Hash(m.Req) != m.Digest {
		return
	}
	if r.cfg.Mode == Mode1TrustedCentralized {
		if m.From != r.Primary() {
			return
		}
		s := r.getSlot(m.Seq)
		s.req = m.Req.Clone()
		s.digest = m.Digest
		r.commitSlot(m.Seq, s)
		return
	}
	if !r.isProxy(m.From) {
		return
	}
	vt, ok := r.commits[m.Seq]
	if !ok {
		vt = quorum.NewValueTally(r.cfg.M + 1)
		r.commits[m.Seq] = vt
	}
	if vt.Add(m.From, m.Digest.String()) {
		s := r.getSlot(m.Seq)
		s.req = m.Req.Clone()
		s.digest = m.Digest
		r.commitSlot(m.Seq, s)
	}
}

func (r *Replica) commitSlot(seq types.Seq, s *slot) {
	if s.committed {
		return
	}
	s.committed = true
	for {
		next, ok := r.slots[r.exec+1]
		if !ok || !next.committed {
			return
		}
		r.exec++
		r.decisions = append(r.decisions, types.Decision{Slot: r.exec, Val: next.req})
		r.done[next.digest] = true
	}
}

// Tick is a no-op in the common-case experiments; primary recovery in
// SeeMoRe reconfigures the mode (the paper delegates it to a classic
// view change among the surviving cloud).
func (r *Replica) Tick() {}

// Drain returns pending outbound messages.
func (r *Replica) Drain() []Message {
	out := r.out
	r.out = nil
	return out
}
