// Package minbft implements MinBFT (Veronese et al., IEEE ToC 2013), the
// paper's first trusted-component protocol: a USIG (Unique Sequential
// Identifier Generator) binds every protocol message to a monotonically
// increasing counter, so a byzantine replica *cannot equivocate* — the
// trusted component never issues two certificates with one counter
// value, and receivers consume each sender's stream gap-free and in
// order. That restriction cuts the replication requirement from 3f+1 to
// 2f+1 and the agreement protocol from three phases to two (prepare,
// commit), with quorums of f+1 — "the same number of replicas,
// communication phases and message complexity as Paxos".
//
// Every prepare/commit/view-change/new-view message carries the sender's
// USIG certificate over its canonical body; receivers hold out-of-order
// messages until the gap fills. A faulty primary that withholds part of
// its stream stalls its backups' monitors, their request timers fire,
// and a view change installs the next primary, merging f+1 replicas'
// reports so that every surviving slot keeps its number (core.go, the
// ordering core CheapBFT runs too).
//
// Profile: partially-synchronous, hybrid (byzantine + trusted
// component), pessimistic, known participants, 2f+1 nodes, 2 phases,
// O(N) messages.
package minbft

import (
	"fmt"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/core"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/trustedhw"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:                 "minbft",
		Synchrony:            core.PartiallySynchronous,
		Failure:              core.Hybrid,
		Strategy:             core.Pessimistic,
		Awareness:            core.KnownParticipants,
		NodesFor:             func(f int) int { return quorum.Trusted{F: f}.Size() },
		NodesFormula:         "2f+1",
		QuorumFor:            func(f int) int { return f + 1 },
		CommitPhases:         2,
		Complexity:           core.Linear,
		ViewChangeComplexity: core.Quadratic,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "USIG trusted counter removes equivocation; same replicas/phases as Paxos",
	})
}

// MsgKind enumerates MinBFT message types.
type MsgKind uint8

const (
	MsgRequest MsgKind = iota + 1
	MsgPrepare
	MsgCommit
	MsgViewChange
	MsgNewView
)

func (k MsgKind) String() string {
	switch k {
	case MsgRequest:
		return "request"
	case MsgPrepare:
		return "prepare"
	case MsgCommit:
		return "commit"
	case MsgViewChange:
		return "view-change"
	case MsgNewView:
		return "new-view"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Message is a MinBFT wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	View     types.View
	Seq      types.Seq
	Req      types.Value
	Digest   chaincrypto.Digest
	// UI is the sender's USIG certificate over Body().
	UI trustedhw.Certificate
	// PrimaryUI relays the primary's prepare certificate inside commits.
	PrimaryUI trustedhw.Certificate
	// ViewChange/NewView payloads.
	Executed types.Seq
	Entries  []Entry
}

// Body returns the canonical byte string the sender's USIG certifies.
func (m Message) Body() []byte {
	parts := [][]byte{
		{byte(m.Kind)},
		chaincrypto.HashUint64(uint64(m.View)),
		chaincrypto.HashUint64(uint64(m.Seq)),
		m.Digest[:],
		chaincrypto.HashUint64(uint64(m.Executed)),
		chaincrypto.HashUint64(m.PrimaryUI.Counter),
		chaincrypto.HashUint64(uint64(m.PrimaryUI.Node)),
	}
	for _, e := range m.Entries {
		parts = append(parts, chaincrypto.HashUint64(uint64(e.Seq)), chaincrypto.HashUint64(uint64(e.View)), e.Req)
	}
	d := chaincrypto.Hash(parts...)
	return d[:]
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config tunes a replica.
type Config struct {
	N, F int
	// Secret is the shared USIG attestation secret.
	Secret []byte
	// RequestTimeout ages pending requests toward view changes.
	// Default 60.
	RequestTimeout int
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60
	}
	if len(c.Secret) == 0 {
		c.Secret = []byte("minbft-attestation")
	}
	return c
}

// Replica is one MinBFT node.
type Replica struct {
	id   types.NodeID
	cfg  Config
	usig *trustedhw.USIG
	mon  *trustedhw.Monitor
	held map[heldAt]Message // certified messages ahead of their sender's stream
	core *Core

	view         types.View
	viewChanging bool
	vcTarget     types.View
	vcVotes      map[types.View]Reports

	out []Message
}

type heldAt struct {
	from    types.NodeID
	counter uint64
}

// NewReplica builds replica id of a 2f+1 cluster.
func NewReplica(id types.NodeID, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	if cfg.N == 0 {
		cfg.N = quorum.Trusted{F: cfg.F}.Size()
	}
	return &Replica{
		id:      id,
		cfg:     cfg,
		usig:    trustedhw.NewUSIG(id, cfg.Secret),
		mon:     trustedhw.NewMonitor(),
		held:    make(map[heldAt]Message),
		core:    NewCore(cfg.F),
		vcVotes: make(map[types.View]Reports),
	}
}

func (r *Replica) quorum() int           { return r.cfg.F + 1 }
func (r *Replica) primary() types.NodeID { return r.view.Primary(r.cfg.N) }

// IsPrimary reports whether this replica leads the current view.
func (r *Replica) IsPrimary() bool { return r.primary() == r.id }

// View returns the current view.
func (r *Replica) View() types.View { return r.view }

// ExecutedFrontier returns the contiguous executed slot frontier.
func (r *Replica) ExecutedFrontier() types.Seq { return r.core.ExecutedFrontier() }

// TakeDecisions drains executed decisions in order.
func (r *Replica) TakeDecisions() []types.Decision { return r.core.TakeDecisions() }

// certifyAndBroadcast signs one logical message with the next USIG
// counter and multicasts it (one counter per multicast: every receiver
// sees the same certificate).
func (r *Replica) certifyAndBroadcast(m Message) {
	m.From = r.id
	m.UI = r.usig.CreateUI(m.Body())
	for i := 0; i < r.cfg.N; i++ {
		if types.NodeID(i) == r.id {
			continue
		}
		mm := m
		mm.To = types.NodeID(i)
		r.out = append(r.out, mm)
	}
}

// Submit hands a client request to this replica.
func (r *Replica) Submit(req types.Value) {
	r.Step(Message{Kind: MsgRequest, From: r.id, To: r.id, Req: req})
}

// Step consumes one delivered message, enforcing per-sender USIG
// sequencing for certified kinds.
func (r *Replica) Step(m Message) {
	if m.Kind == MsgRequest {
		r.process(m)
		return
	}
	if m.From == r.id || r.usig.VerifyUI(m.UI, m.Body()) != nil || m.UI.Node != m.From {
		return
	}
	if !r.mon.Accept(m.UI) {
		if m.UI.Counter > r.mon.Expected(m.From) {
			r.held[heldAt{m.From, m.UI.Counter}] = m
		}
		return
	}
	r.process(m)
	// Drain now-contiguous held messages from this sender.
	for {
		at := heldAt{m.From, r.mon.Expected(m.From)}
		next, ok := r.held[at]
		if !ok || !r.mon.Accept(next.UI) {
			return
		}
		delete(r.held, at)
		r.process(next)
	}
}

func (r *Replica) process(m Message) {
	switch m.Kind {
	case MsgRequest:
		r.onRequest(m)
	case MsgPrepare:
		r.onPrepare(m)
	case MsgCommit:
		r.onCommit(m)
	case MsgViewChange:
		r.onViewChange(m)
	case MsgNewView:
		r.onNewView(m)
	}
}

func (r *Replica) onRequest(m Message) {
	fresh, ok := r.core.Pend(m.Req)
	if !ok {
		return
	}
	if r.IsPrimary() && !r.viewChanging {
		r.prepare(m.Req)
		return
	}
	if fresh {
		// Flood so every replica arms its timer against the primary.
		for i := 0; i < r.cfg.N; i++ {
			if types.NodeID(i) != r.id {
				r.out = append(r.out, Message{Kind: MsgRequest, From: r.id, To: types.NodeID(i), Req: m.Req.Clone()})
			}
		}
	}
}

// prepare is the primary's ordering step.
func (r *Replica) prepare(req types.Value) {
	if seq, d, ok := r.core.Propose(req, r.view); ok {
		r.propose(seq, req, d)
	}
}

// propose sends the prepare for req at seq.
func (r *Replica) propose(seq types.Seq, req types.Value, d chaincrypto.Digest) {
	r.certifyAndBroadcast(Message{Kind: MsgPrepare, View: r.view, Seq: seq, Req: req.Clone(), Digest: d})
	r.core.Commit(seq, req, d, r.view, r.id) // the prepare doubles as the primary's commit
}

func (r *Replica) onPrepare(m Message) {
	if m.View != r.view || m.From != r.primary() || r.viewChanging || chaincrypto.Hash(m.Req) != m.Digest {
		return
	}
	if !r.core.Accept(m.Seq, m.Req, m.Digest, m.View) {
		// Same slot, different content: impossible from a correct
		// primary and prevented for byzantine ones by the counter
		// stream — but guard anyway and demand a new view.
		r.startViewChange(r.view + 1)
		return
	}
	r.certifyAndBroadcast(Message{
		Kind: MsgCommit, View: m.View, Seq: m.Seq, Req: m.Req.Clone(),
		Digest: m.Digest, PrimaryUI: m.UI,
	})
	r.core.Commit(m.Seq, m.Req, m.Digest, m.View, m.From, r.id)
}

func (r *Replica) onCommit(m Message) {
	if m.View != r.view || r.viewChanging || m.PrimaryUI.Node != r.primary() || chaincrypto.Hash(m.Req) != m.Digest {
		return
	}
	r.core.Commit(m.Seq, m.Req, m.Digest, m.View, m.PrimaryUI.Node, m.From)
}

func (r *Replica) startViewChange(target types.View) {
	if target <= r.view || (r.viewChanging && target <= r.vcTarget) {
		return
	}
	r.viewChanging = true
	r.vcTarget = target
	rep := r.core.Report()
	r.record(target, r.id, rep.Executed, rep.Entries)
	r.certifyAndBroadcast(Message{Kind: MsgViewChange, View: target, Executed: rep.Executed, Entries: rep.Entries})
}

func (r *Replica) onViewChange(m Message) {
	if m.View <= r.view {
		return
	}
	r.record(m.View, m.From, m.Executed, m.Entries)
	// Join a view change once any peer votes for it and our own requests
	// are aging, or once a quorum-1 of peers demand it.
	if !r.viewChanging || r.vcTarget < m.View {
		if r.core.Waiting(r.cfg.RequestTimeout/2) || len(r.vcVotes[m.View]) >= r.quorum()-1 {
			r.startViewChange(m.View)
		}
	}
}

func (r *Replica) record(v types.View, from types.NodeID, executed types.Seq, entries []Entry) {
	votes, ok := r.vcVotes[v]
	if !ok {
		votes = make(Reports)
		r.vcVotes[v] = votes
	}
	if !votes.Add(from, executed, entries) {
		return
	}
	if v.Primary(r.cfg.N) == r.id && len(votes) >= r.quorum() && r.view < v {
		exec, entries := votes.Merge(v)
		r.certifyAndBroadcast(Message{Kind: MsgNewView, View: v, Executed: exec, Entries: entries})
		r.applyNewView(v, exec, entries)
	}
}

func (r *Replica) onNewView(m Message) {
	if m.View < r.view || m.From != m.View.Primary(r.cfg.N) {
		return
	}
	r.applyNewView(m.View, m.Executed, m.Entries)
}

// applyNewView installs view v from the merged reports; its primary
// re-proposes every survivor at its own slot, under a fresh counter,
// before anything new.
func (r *Replica) applyNewView(v types.View, executed types.Seq, survivors []Entry) {
	r.view = v
	r.viewChanging = false
	for view := range r.vcVotes {
		if view <= v {
			delete(r.vcVotes, view)
		}
	}
	for _, e := range r.core.Install(v, executed, survivors, r.IsPrimary()) {
		r.propose(e.Seq, e.Req, chaincrypto.Hash(e.Req))
	}
}

// Tick ages pending requests toward view changes.
func (r *Replica) Tick() {
	r.core.Tick()
	if !r.viewChanging && r.core.Waiting(r.cfg.RequestTimeout) {
		r.startViewChange(r.view + 1)
	}
}

// Drain returns pending outbound messages.
func (r *Replica) Drain() []Message {
	out := r.out
	r.out = nil
	return out
}
