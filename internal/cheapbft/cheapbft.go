// Package cheapbft implements CheapBFT (Kapitza et al., EuroSys 2012),
// the paper's resource-efficient trusted-component protocol. Its trusted
// CASH subsystem (counter assignment for selective hashing) certifies
// messages with a monotonic counter per protocol instance (epoch), and
// the system runs three sub-protocols:
//
//	CheapTiny   — normal case: only f+1 replicas are active; the other f
//	              stay passive and receive state updates. Two phases
//	              (prepare, commit) among the actives.
//	CheapSwitch — on any suspected fault a replica PANICs with its
//	              report; the leader of the next epoch merges f+1
//	              reports into the abort history, replicas validate it
//	              and send SWITCH messages; after f matching switches
//	              the history is stable and the group transitions.
//	MinBFT      — fallback: all 2f+1 replicas run MinBFT's prepare/commit
//	              until a quiet period allows switching back to CheapTiny.
//
// The fallback is MinBFT's own ordering core (minbft.Core), which also
// orders CheapTiny's slots, so those survive the switch as they are, and
// CheapSwitch is MinBFT's view change under another name: the same
// report, merge and install.
//
// Profile: partially-synchronous, hybrid, optimistic (f+1 active),
// known participants, f+1 of 2f+1 nodes active, 2 phases, O(N).
package cheapbft

import (
	"fmt"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/core"
	"fortyconsensus/internal/minbft"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/trustedhw"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:                 "cheapbft",
		Synchrony:            core.PartiallySynchronous,
		Failure:              core.Hybrid,
		Strategy:             core.Optimistic,
		Awareness:            core.KnownParticipants,
		NodesFor:             func(f int) int { return quorum.Trusted{F: f}.Size() },
		NodesFormula:         "f+1 active of 2f+1",
		QuorumFor:            func(f int) int { return quorum.Trusted{F: f}.Threshold() },
		CommitPhases:         2,
		Complexity:           core.Linear,
		ViewChangeComplexity: core.Linear,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "CASH trusted counters; active/passive replication; CheapSwitch on panic",
	})
}

// Mode is the running sub-protocol.
type Mode uint8

const (
	ModeCheapTiny Mode = iota
	ModeSwitching
	ModeMinBFT
)

func (m Mode) String() string {
	switch m {
	case ModeCheapTiny:
		return "cheaptiny"
	case ModeSwitching:
		return "cheapswitch"
	case ModeMinBFT:
		return "minbft"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// MsgKind enumerates CheapBFT message types.
type MsgKind uint8

const (
	MsgRequest MsgKind = iota + 1
	MsgPrepare
	MsgCommit
	MsgUpdate // active → passive state transfer
	MsgPanic
	MsgHistory    // CheapSwitch: leader's abort history
	MsgSwitch     // CheapSwitch: validation votes
	MsgSwitchBack // primary announces the return to CheapTiny
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
	case MsgPanic:
		return "panic"
	case MsgHistory:
		return "history"
	case MsgSwitch:
		return "switch"
	case MsgSwitchBack:
		return "switch-back"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Message is a CheapBFT wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	Epoch    uint64
	Seq      types.Seq
	Req      types.Value
	Digest   chaincrypto.Digest
	Cert     trustedhw.Certificate
	Entries  []minbft.Entry
	Executed types.Seq
}

// body is the byte string the sender's CASH certifies.
func (m Message) body() []byte {
	parts := [][]byte{
		{byte(m.Kind)},
		chaincrypto.HashUint64(m.Epoch),
		chaincrypto.HashUint64(uint64(m.Seq)),
		m.Digest[:],
		chaincrypto.HashUint64(uint64(m.Executed)),
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
	// Secret is the shared CASH attestation secret.
	Secret []byte
	// RequestTimeout ages in-flight slots toward PANIC. Default 50.
	RequestTimeout int
	// QuietTicks of fault-free MinBFT operation trigger the switch back
	// to CheapTiny. 0 disables switch-back.
	QuietTicks int
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 50
	}
	if len(c.Secret) == 0 {
		c.Secret = []byte("cheapbft-cash")
	}
	return c
}

// Replica is one CheapBFT node.
type Replica struct {
	id   types.NodeID
	cfg  Config
	cash *trustedhw.CASH
	core *minbft.Core

	mode  Mode
	epoch uint64

	// CheapSwitch state, for the switch from epoch to epoch+1: the PANIC
	// reports gathered, the abort history once adopted, and the SWITCH
	// votes that make it stable.
	panics      minbft.Reports
	history     *minbft.Report
	switchVote  *quorum.Tally
	switchSince int
	quietSince  int

	out []Message
}

// NewReplica builds replica id of a 2f+1 cluster.
func NewReplica(id types.NodeID, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	if cfg.N == 0 {
		cfg.N = quorum.Trusted{F: cfg.F}.Size()
	}
	return &Replica{
		id:     id,
		cfg:    cfg,
		cash:   trustedhw.NewCASH(id, cfg.Secret),
		core:   minbft.NewCore(cfg.F),
		panics: make(minbft.Reports),
	}
}

// isActive reports whether the given replica is in the active set. In
// CheapTiny epoch e, the active set rotates: replicas (e+i) mod n for
// i in [0, f].
func (r *Replica) isActive(id types.NodeID) bool {
	if r.mode == ModeMinBFT {
		return true
	}
	base := int(r.epoch)
	for i := 0; i <= r.cfg.F; i++ {
		if types.NodeID((base+i)%r.cfg.N) == id {
			return true
		}
	}
	return false
}

func (r *Replica) primary() types.NodeID { return r.leaderOf(r.epoch) }

// leaderOf returns epoch e's primary, which is also the replica that
// leads the switch into e.
func (r *Replica) leaderOf(e uint64) types.NodeID { return types.NodeID(int(e) % r.cfg.N) }

func (r *Replica) view() types.View { return types.View(r.epoch) }

// IsPrimary reports whether this replica leads.
func (r *Replica) IsPrimary() bool { return r.primary() == r.id }

// Mode returns the running sub-protocol.
func (r *Replica) Mode() Mode { return r.mode }

// Epoch returns the protocol-instance number.
func (r *Replica) Epoch() uint64 { return r.epoch }

// ExecutedFrontier returns the contiguous executed slot frontier.
func (r *Replica) ExecutedFrontier() types.Seq { return r.core.ExecutedFrontier() }

// TakeDecisions drains executed decisions in order.
func (r *Replica) TakeDecisions() []types.Decision { return r.core.TakeDecisions() }

func (r *Replica) send(m Message) {
	m.From = r.id
	r.out = append(r.out, m)
}

// certSend certifies m with CASH under the current epoch and sends it to
// each listed recipient (one certificate per logical message).
func (r *Replica) certSend(m Message, to ...types.NodeID) {
	m.From = r.id
	m.Epoch = r.epoch
	m.Cert = r.cash.CreateCert(m.body())
	for _, t := range to {
		mm := m
		mm.To = t
		r.out = append(r.out, mm)
	}
}

// others lists, in ID order, every other replica that keep selects.
func (r *Replica) others(keep func(types.NodeID) bool) []types.NodeID {
	var ids []types.NodeID
	for i := 0; i < r.cfg.N; i++ {
		if id := types.NodeID(i); id != r.id && keep(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

func (r *Replica) isPassive(id types.NodeID) bool { return !r.isActive(id) }

func anyone(types.NodeID) bool { return true }

// Submit hands a client request to this replica.
func (r *Replica) Submit(req types.Value) {
	r.Step(Message{Kind: MsgRequest, From: r.id, To: r.id, Req: req})
}

// Step consumes one delivered message. Requests travel uncertified;
// every other kind must carry a CASH certificate from its sender under
// the epoch it names.
func (r *Replica) Step(m Message) {
	if m.Kind != MsgRequest && m.From != r.id &&
		(r.cash.VerifyCert(m.Cert, m.Epoch, m.body()) != nil || m.Cert.Node != m.From) {
		return
	}
	switch m.Kind {
	case MsgRequest:
		r.onRequest(m)
	case MsgPanic:
		r.onPanic(m)
	case MsgPrepare:
		r.onPrepare(m)
	case MsgCommit:
		r.onCommit(m)
	case MsgUpdate:
		r.onUpdate(m)
	case MsgHistory:
		r.onHistory(m)
	case MsgSwitch:
		r.onSwitch(m)
	case MsgSwitchBack:
		r.onSwitchBack(m)
	}
}

func (r *Replica) onRequest(m Message) {
	fresh, ok := r.core.Pend(m.Req)
	if !ok {
		return
	}
	if r.IsPrimary() && r.mode != ModeSwitching {
		r.prepare(m.Req)
		return
	}
	if fresh {
		for _, id := range r.others(anyone) {
			r.send(Message{Kind: MsgRequest, To: id, Req: m.Req.Clone()})
		}
	}
}

func (r *Replica) prepare(req types.Value) {
	if seq, d, ok := r.core.Propose(req, r.view()); ok {
		r.propose(seq, req, d)
	}
}

// propose sends the prepare for req at seq to the other active replicas.
func (r *Replica) propose(seq types.Seq, req types.Value, d chaincrypto.Digest) {
	r.certSend(Message{Kind: MsgPrepare, Seq: seq, Req: req.Clone(), Digest: d}, r.others(r.isActive)...)
	r.update(r.core.Commit(seq, req, d, r.view(), r.id))
}

func (r *Replica) onPrepare(m Message) {
	// Passive replicas wait for updates.
	if m.Epoch != r.epoch || m.From != r.primary() || r.mode == ModeSwitching || !r.isActive(r.id) ||
		chaincrypto.Hash(m.Req) != m.Digest {
		return
	}
	if !r.core.Accept(m.Seq, m.Req, m.Digest, r.view()) {
		r.panic()
		return
	}
	r.certSend(Message{Kind: MsgCommit, Seq: m.Seq, Digest: m.Digest, Req: m.Req.Clone()}, r.others(r.isActive)...)
	r.update(r.core.Commit(m.Seq, m.Req, m.Digest, r.view(), m.From, r.id))
}

// onCommit counts an active replica's commit. In CheapTiny the f+1
// votes the core waits for are every active replica; in MinBFT mode,
// f+1 of 2f+1.
func (r *Replica) onCommit(m Message) {
	if m.Epoch != r.epoch || r.mode == ModeSwitching || !r.isActive(m.From) || !r.isActive(r.id) ||
		chaincrypto.Hash(m.Req) != m.Digest {
		return
	}
	r.update(r.core.Commit(m.Seq, m.Req, m.Digest, r.view(), m.From))
}

// update has the CheapTiny primary stream newly executed slots to the
// passive replicas.
func (r *Replica) update(executed []types.Decision) {
	if !r.IsPrimary() || r.mode != ModeCheapTiny {
		return
	}
	for _, d := range executed {
		r.certSend(Message{
			Kind: MsgUpdate, Seq: d.Slot,
			Entries: []minbft.Entry{{Seq: d.Slot, View: r.view(), Req: d.Val.Clone()}},
		}, r.others(r.isPassive)...)
	}
}

// onUpdate applies committed state at a passive replica. The update's
// CASH certificate binds it to the primary and epoch; a primary that
// forged updates would be caught at the next switch when histories are
// validated.
func (r *Replica) onUpdate(m Message) {
	if m.Epoch != r.epoch || m.From != r.primary() || r.isActive(r.id) {
		return
	}
	for _, e := range m.Entries {
		r.core.Learn(e.Seq, e.Req)
	}
}

// panic starts CheapSwitch, which is MinBFT's view change under another
// name: this replica's report (its executed frontier and every slot
// above it) goes, CASH-certified, to every other replica, and ordering
// stops until the next epoch's leader has merged f+1 reports into the
// abort history.
func (r *Replica) panic() {
	if r.mode == ModeSwitching {
		return
	}
	r.mode = ModeSwitching
	r.switchVote = quorum.NewTally(r.cfg.F) // f matching SWITCH messages stabilize
	r.history = nil
	r.switchSince = r.core.Now()
	rep := r.core.Report()
	r.panics.Add(r.id, rep.Executed, rep.Entries)
	r.certSend(Message{Kind: MsgPanic, Executed: rep.Executed, Entries: rep.Entries}, r.others(anyone)...)
	r.lead()
}

// onPanic records a peer's report and joins its PANIC.
func (r *Replica) onPanic(m Message) {
	if m.Epoch != r.epoch {
		return
	}
	r.panics.Add(m.From, m.Executed, m.Entries)
	r.panic()
	r.lead()
}

// lead has the next epoch's leader, once it holds f+1 reports, merge
// them into the abort history, send it with its own SWITCH vote (so that
// peers with only one live counterpart can still gather f), and adopt
// it.
func (r *Replica) lead() {
	if r.mode != ModeSwitching || r.history != nil || r.leaderOf(r.epoch+1) != r.id || len(r.panics) < r.cfg.F+1 {
		return
	}
	exec, entries := r.panics.Merge(types.View(r.epoch + 1))
	hist := Message{Kind: MsgHistory, Epoch: r.epoch, Executed: exec, Entries: entries}
	r.certSend(hist, r.others(anyone)...)
	r.certSend(Message{Kind: MsgSwitch, Digest: chaincrypto.Hash(hist.body())}, r.others(anyone)...)
	r.adoptHistory(exec, entries)
}

// onHistory validates the abort history against local state and votes.
func (r *Replica) onHistory(m Message) {
	if r.mode != ModeSwitching || m.Epoch != r.epoch || m.From != r.leaderOf(r.epoch+1) {
		return
	}
	// Validation: the history must not contradict anything we executed.
	if !r.core.Consistent(m.Entries) {
		return // invalid history; stay panicked, epoch stalls
	}
	r.certSend(Message{Kind: MsgSwitch, Digest: chaincrypto.Hash(m.body())}, r.others(anyone)...)
	r.adoptHistory(m.Executed, m.Entries)
}

func (r *Replica) adoptHistory(executed types.Seq, entries []minbft.Entry) {
	if r.history != nil {
		return
	}
	r.history = &minbft.Report{Executed: executed, Entries: append([]minbft.Entry(nil), entries...)}
	r.maybeFinishSwitch()
}

func (r *Replica) onSwitch(m Message) {
	if r.mode != ModeSwitching || m.Epoch != r.epoch {
		return
	}
	r.switchVote.Add(m.From)
	r.maybeFinishSwitch()
}

// maybeFinishSwitch installs a stable abort history: the CASH epoch
// advances (old-instance certificates die here) and all replicas run
// MinBFT, whose primary re-proposes every survivor at its own slot
// before anything new.
func (r *Replica) maybeFinishSwitch() {
	if r.history == nil || !r.switchVote.Reached() {
		return
	}
	hist := r.history
	r.enterEpoch(r.epoch+1, ModeMinBFT)
	for _, e := range r.core.Install(r.view(), hist.Executed, hist.Entries, r.IsPrimary()) {
		r.propose(e.Seq, e.Req, chaincrypto.Hash(e.Req))
	}
	if !r.IsPrimary() {
		// Hand surviving requests to the new primary.
		for _, req := range r.core.Pending() {
			r.send(Message{Kind: MsgRequest, To: r.primary(), Req: req.Clone()})
		}
	}
}

// enterEpoch moves this replica, and its CASH, to epoch e in mode.
func (r *Replica) enterEpoch(e uint64, mode Mode) {
	r.epoch = e
	for r.cash.Epoch() < e {
		r.cash.AdvanceEpoch()
	}
	r.mode = mode
	r.panics = make(minbft.Reports)
	r.quietSince = r.core.Now()
}

// Tick ages in-flight slots toward PANIC and drives switch-back.
func (r *Replica) Tick() {
	r.core.Tick()
	now := r.core.Now()
	switch r.mode {
	case ModeCheapTiny:
		if r.isActive(r.id) && (r.core.Stuck(r.cfg.RequestTimeout) || r.core.Waiting(r.cfg.RequestTimeout)) {
			r.panic()
		}
	case ModeMinBFT:
		for _, req := range r.core.Resend(r.cfg.RequestTimeout) {
			r.send(Message{Kind: MsgRequest, To: r.primary(), Req: req.Clone()})
		}
		if r.IsPrimary() && r.cfg.QuietTicks > 0 && now-r.quietSince > r.cfg.QuietTicks && r.core.Idle() {
			// Fault-free quiet period: the primary announces the return
			// to CheapTiny so every replica advances its epoch together.
			r.certSend(Message{Kind: MsgSwitchBack}, r.others(anyone)...)
			r.enterEpoch(r.epoch+1, ModeCheapTiny)
		}
	case ModeSwitching:
		// A stalled switch (e.g. the next leader is the faulty node)
		// escalates: PANIC again, in the next epoch, to the leader after.
		if now-r.switchSince > 2*r.cfg.RequestTimeout {
			r.enterEpoch(r.epoch+1, ModeCheapTiny)
			r.panic()
		}
	}
}

// onSwitchBack returns the group to CheapTiny on the primary's order.
func (r *Replica) onSwitchBack(m Message) {
	if r.mode != ModeMinBFT || m.Epoch != r.epoch || m.From != r.primary() {
		return
	}
	r.enterEpoch(r.epoch+1, ModeCheapTiny)
}

// Drain returns pending outbound messages.
func (r *Replica) Drain() []Message {
	out := r.out
	r.out = nil
	return out
}
