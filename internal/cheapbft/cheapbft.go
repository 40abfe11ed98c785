// Package cheapbft implements CheapBFT (Kapitza et al., EuroSys 2012),
// the paper's resource-efficient trusted-component protocol. Its trusted
// CASH subsystem (counter assignment for selective hashing) certifies
// messages with a monotonic counter per protocol instance (epoch), and
// the system runs three sub-protocols:
//
//	CheapTiny   — normal case: only f+1 replicas are active; the other f
//	              stay passive and receive state updates. Two phases
//	              (prepare, commit) among the actives.
//	CheapSwitch — on any suspected fault a replica PANICs; the leader of
//	              the next epoch assembles an abort history, replicas
//	              validate it and send SWITCH messages; after f matching
//	              switches the history is stable and the group
//	              transitions.
//	MinBFT      — fallback: all 2f+1 replicas run MinBFT-style
//	              prepare/commit until a quiet period allows switching
//	              back to CheapTiny.
//
// Profile: partially-synchronous, hybrid, optimistic (f+1 active),
// known participants, f+1 of 2f+1 nodes active, 2 phases, O(N).
package cheapbft

import (
	"fmt"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/core"
	"fortyconsensus/internal/det"
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

// Entry is one slot of an abort history or update batch.
type Entry struct {
	Seq types.Seq
	Req types.Value
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
	Entries  []Entry
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
		parts = append(parts, chaincrypto.HashUint64(uint64(e.Seq)), e.Req)
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

type slot struct {
	req       types.Value
	digest    chaincrypto.Digest
	commits   *quorum.Tally
	committed bool
	started   int
}

// Replica is one CheapBFT node.
type Replica struct {
	id   types.NodeID
	cfg  Config
	cash *trustedhw.CASH
	now  int

	mode  Mode
	epoch uint64

	seq     types.Seq
	slots   map[types.Seq]*slot
	exec    types.Seq
	decided []types.Decision

	pending map[chaincrypto.Digest]pend
	done    map[chaincrypto.Digest]bool

	panicked    bool
	switchVote  *quorum.Tally
	histEpoch   uint64
	histApplied bool
	switchSince int
	quietSince  int

	out []Message
}

type pend struct {
	req   types.Value
	since int
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
		cash:    trustedhw.NewCASH(id, cfg.Secret),
		slots:   make(map[types.Seq]*slot),
		pending: make(map[chaincrypto.Digest]pend),
		done:    make(map[chaincrypto.Digest]bool),
	}
}

// activeCount returns how many replicas participate in agreement now.
func (r *Replica) activeCount() int {
	if r.mode == ModeMinBFT {
		return r.cfg.N
	}
	return r.cfg.F + 1
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

func (r *Replica) primary() types.NodeID {
	return types.NodeID(int(r.epoch) % r.cfg.N)
}

// IsPrimary reports whether this replica leads.
func (r *Replica) IsPrimary() bool { return r.primary() == r.id }

// Mode returns the running sub-protocol.
func (r *Replica) Mode() Mode { return r.mode }

// Epoch returns the protocol-instance number.
func (r *Replica) Epoch() uint64 { return r.epoch }

// ExecutedFrontier returns the contiguous executed slot frontier.
func (r *Replica) ExecutedFrontier() types.Seq { return r.exec }

// TakeDecisions drains executed decisions in order.
func (r *Replica) TakeDecisions() []types.Decision {
	d := r.decided
	r.decided = nil
	return d
}

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

func (r *Replica) activeSet() []types.NodeID {
	var ids []types.NodeID
	for i := 0; i < r.cfg.N; i++ {
		if r.isActive(types.NodeID(i)) {
			ids = append(ids, types.NodeID(i))
		}
	}
	return ids
}

func (r *Replica) othersActive() []types.NodeID {
	var ids []types.NodeID
	for _, id := range r.activeSet() {
		if id != r.id {
			ids = append(ids, id)
		}
	}
	return ids
}

func (r *Replica) passiveSet() []types.NodeID {
	var ids []types.NodeID
	for i := 0; i < r.cfg.N; i++ {
		if !r.isActive(types.NodeID(i)) {
			ids = append(ids, types.NodeID(i))
		}
	}
	return ids
}

func (r *Replica) everyoneElse() []types.NodeID {
	var ids []types.NodeID
	for i := 0; i < r.cfg.N; i++ {
		if types.NodeID(i) != r.id {
			ids = append(ids, types.NodeID(i))
		}
	}
	return ids
}

// Submit hands a client request to this replica.
func (r *Replica) Submit(req types.Value) {
	r.Step(Message{Kind: MsgRequest, From: r.id, To: r.id, Req: req})
}

// Step consumes one delivered message.
func (r *Replica) Step(m Message) {
	//lint:allow exhaustive uncertified kinds only; every certified kind falls through to the verified switch below
	switch m.Kind {
	case MsgRequest:
		r.onRequest(m)
		return
	case MsgPanic:
		r.onPanic(m)
		return
	}
	// Certified kinds: verify the CASH certificate under its epoch.
	if m.From != r.id {
		if r.cash.VerifyCert(m.Cert, m.Epoch, m.body()) != nil || m.Cert.Node != m.From {
			return
		}
	}
	//lint:allow exhaustive MsgRequest and MsgPanic already returned from the uncertified switch above
	switch m.Kind {
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
	d := chaincrypto.Hash(m.Req)
	if r.done[d] {
		return
	}
	first := false
	if _, ok := r.pending[d]; !ok {
		r.pending[d] = pend{req: m.Req.Clone(), since: r.now}
		first = true
	}
	if r.IsPrimary() && r.mode != ModeSwitching {
		r.prepare(m.Req, d)
		return
	}
	if first {
		for _, id := range r.everyoneElse() {
			r.send(Message{Kind: MsgRequest, To: id, Req: m.Req.Clone()})
		}
	}
}

func (r *Replica) prepare(req types.Value, d chaincrypto.Digest) {
	for _, s := range r.slots {
		if s.digest == d && s.req != nil {
			return
		}
	}
	r.seq++
	seq := r.seq
	s := r.getSlot(seq)
	s.req = req.Clone()
	s.digest = d
	s.started = r.now
	s.commits.Add(r.id)
	r.certSend(Message{Kind: MsgPrepare, Seq: seq, Req: req.Clone(), Digest: d}, r.othersActive()...)
	r.maybeCommit(seq, s)
}

func (r *Replica) getSlot(seq types.Seq) *slot {
	s, ok := r.slots[seq]
	if !ok {
		// CheapTiny requires *all* f+1 actives; MinBFT mode needs f+1
		// of 2f+1 — both are activeCount-dependent thresholds.
		need := r.cfg.F + 1
		s = &slot{commits: quorum.NewTally(need), started: r.now}
		r.slots[seq] = s
	}
	return s
}

func (r *Replica) onPrepare(m Message) {
	if m.Epoch != r.epoch || m.From != r.primary() || r.mode == ModeSwitching {
		return
	}
	if !r.isActive(r.id) {
		return // passive replicas wait for updates
	}
	if chaincrypto.Hash(m.Req) != m.Digest {
		return
	}
	s := r.getSlot(m.Seq)
	if s.req != nil && s.digest != m.Digest {
		r.panic()
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
	r.certSend(Message{Kind: MsgCommit, Seq: m.Seq, Digest: m.Digest, Req: m.Req.Clone()}, r.othersActive()...)
	r.maybeCommit(m.Seq, s)
}

func (r *Replica) onCommit(m Message) {
	if m.Epoch != r.epoch || r.mode == ModeSwitching || !r.isActive(m.From) || !r.isActive(r.id) {
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

func (r *Replica) maybeCommit(seq types.Seq, s *slot) {
	if s.committed || s.req == nil {
		return
	}
	// CheapTiny: every active replica must have committed (f+1 of f+1).
	// MinBFT mode: f+1 of 2f+1 suffice.
	need := r.cfg.F + 1
	if s.commits.Count() < need {
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
		r.decided = append(r.decided, types.Decision{Slot: r.exec, Val: s.req})
		r.done[s.digest] = true
		delete(r.pending, s.digest)
		// The primary streams committed state to passive replicas.
		if r.IsPrimary() && r.mode == ModeCheapTiny {
			r.certSend(Message{
				Kind: MsgUpdate, Seq: r.exec,
				Entries: []Entry{{Seq: r.exec, Req: s.req.Clone()}},
			}, r.passiveSet()...)
		}
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
		if e.Seq != r.exec+1 {
			continue
		}
		r.exec = e.Seq
		r.decided = append(r.decided, types.Decision{Slot: e.Seq, Val: e.Req.Clone()})
		d := chaincrypto.Hash(e.Req)
		r.done[d] = true
		delete(r.pending, d)
	}
}

// panic triggers CheapSwitch.
func (r *Replica) panic() {
	if r.panicked || r.mode == ModeSwitching {
		return
	}
	r.panicked = true
	for _, id := range r.everyoneElse() {
		r.send(Message{Kind: MsgPanic, To: id, Epoch: r.epoch})
	}
	r.beginSwitch()
}

func (r *Replica) onPanic(m Message) {
	if m.Epoch != r.epoch || r.mode == ModeSwitching {
		return
	}
	if !r.panicked {
		r.panicked = true
		for _, id := range r.everyoneElse() {
			r.send(Message{Kind: MsgPanic, To: id, Epoch: r.epoch})
		}
	}
	r.beginSwitch()
}

// beginSwitch enters CheapSwitch; the next epoch's leader assembles and
// broadcasts the abort history.
func (r *Replica) beginSwitch() {
	if r.mode == ModeSwitching {
		return
	}
	r.mode = ModeSwitching
	r.switchVote = quorum.NewTally(r.cfg.F) // f matching SWITCH messages stabilize
	r.histEpoch = r.epoch + 1
	r.histApplied = false
	r.switchSince = r.now
	next := types.NodeID(int(r.histEpoch) % r.cfg.N)
	if next == r.id {
		entries := make([]Entry, 0, len(r.slots))
		for _, seq := range det.SortedKeys(r.slots) {
			if s := r.slots[seq]; seq > r.exec && s.req != nil {
				entries = append(entries, Entry{Seq: seq, Req: s.req.Clone()})
			}
		}
		hist := Message{Kind: MsgHistory, Epoch: r.epoch, Executed: r.exec, Entries: entries}
		r.certSend(hist, r.everyoneElse()...)
		// The leader votes for its own history so that peers with only
		// one live counterpart can still gather f SWITCH messages.
		hist.From = r.id
		r.certSend(Message{Kind: MsgSwitch, Epoch: r.epoch, Digest: chaincrypto.Hash(hist.body())}, r.everyoneElse()...)
		r.adoptHistory(r.exec, entries)
	}
}

// onHistory validates the abort history against local state and votes.
func (r *Replica) onHistory(m Message) {
	if r.mode != ModeSwitching || m.Epoch != r.epoch {
		return
	}
	if m.From != types.NodeID(int(r.epoch+1)%r.cfg.N) {
		return
	}
	// Validation: the history must not contradict anything we executed.
	for _, e := range m.Entries {
		if e.Seq <= r.exec {
			if s, ok := r.slots[e.Seq]; ok && s.req != nil && !s.req.Equal(e.Req) {
				return // invalid history; stay panicked, epoch stalls
			}
		}
	}
	r.certSend(Message{Kind: MsgSwitch, Epoch: r.epoch, Digest: chaincrypto.Hash(m.body())}, r.everyoneElse()...)
	r.adoptHistory(m.Executed, m.Entries)
}

func (r *Replica) adoptHistory(executed types.Seq, entries []Entry) {
	if r.histApplied {
		return
	}
	r.histApplied = true
	// Execute anything the history shows committed that we miss.
	for _, e := range entries {
		if e.Seq > r.exec {
			r.pending[chaincrypto.Hash(e.Req)] = pend{req: e.Req.Clone(), since: r.now}
		}
	}
	_ = executed
	r.maybeFinishSwitch()
}

func (r *Replica) onSwitch(m Message) {
	if r.mode != ModeSwitching || m.Epoch != r.epoch {
		return
	}
	r.switchVote.Add(m.From)
	r.maybeFinishSwitch()
}

func (r *Replica) maybeFinishSwitch() {
	if !r.histApplied || r.switchVote == nil || !r.switchVote.Reached() {
		return
	}
	// Transition: advance the CASH epoch (old-instance certificates die
	// here) and run MinBFT with all replicas.
	r.epoch = r.histEpoch
	r.cash.AdvanceEpoch()
	for r.cash.Epoch() < r.epoch {
		r.cash.AdvanceEpoch()
	}
	r.mode = ModeMinBFT
	r.panicked = false
	r.quietSince = r.now
	// Reset uncommitted slots; the new primary re-proposes survivors.
	for seq, s := range r.slots {
		if !s.committed {
			delete(r.slots, seq)
			if s.req != nil && !r.done[s.digest] {
				r.pending[s.digest] = pend{req: s.req, since: r.now}
			}
		}
	}
	if r.seq < r.exec {
		r.seq = r.exec
	}
	for d, p := range r.pending {
		p.since = r.now
		r.pending[d] = p
	}
	if r.IsPrimary() {
		for _, d := range det.SortedKeysFunc(r.pending, chaincrypto.Digest.Compare) {
			r.prepare(r.pending[d].req, d)
		}
	} else {
		// Hand surviving requests to the new primary.
		for _, d := range det.SortedKeysFunc(r.pending, chaincrypto.Digest.Compare) {
			r.send(Message{Kind: MsgRequest, To: r.primary(), Req: r.pending[d].req.Clone()})
		}
	}
}

// Tick ages in-flight slots toward PANIC and drives switch-back.
func (r *Replica) Tick() {
	r.now++
	switch r.mode {
	case ModeCheapTiny:
		if !r.isActive(r.id) {
			return
		}
		//lint:allow maporder any timed-out slot triggers the same single panic; which fires first is immaterial
		for seq, s := range r.slots {
			if seq > r.exec && s.req != nil && !s.committed && r.now-s.started > r.cfg.RequestTimeout {
				r.panic()
				return
			}
		}
		//lint:allow maporder any timed-out request triggers the same single panic; which fires first is immaterial
		for _, p := range r.pending {
			if r.now-p.since > r.cfg.RequestTimeout {
				r.panic()
				return
			}
		}
	case ModeMinBFT:
		for _, d := range det.SortedKeysFunc(r.pending, chaincrypto.Digest.Compare) {
			p := r.pending[d]
			if r.now-p.since > 2*r.cfg.RequestTimeout {
				// The MinBFT-mode primary is stalling: panic again so
				// the epoch (and primary) advances.
				r.panic()
				return
			}
			if r.now-p.since > r.cfg.RequestTimeout {
				p.since = r.now
				r.pending[d] = p
				r.send(Message{Kind: MsgRequest, To: r.primary(), Req: p.req.Clone()})
			}
		}
		if r.IsPrimary() && r.cfg.QuietTicks > 0 && r.now-r.quietSince > r.cfg.QuietTicks && len(r.pending) == 0 {
			// Fault-free quiet period: the primary announces the return
			// to CheapTiny so every replica advances its epoch together.
			r.certSend(Message{Kind: MsgSwitchBack}, r.everyoneElse()...)
			r.doSwitchBack()
		}
	case ModeSwitching:
		// A stalled switch (e.g. the next leader is the faulty node)
		// escalates to the epoch after.
		if r.now-r.switchSince > 2*r.cfg.RequestTimeout {
			r.mode = ModeCheapTiny // re-enter to allow beginSwitch
			r.epoch = r.histEpoch
			for r.cash.Epoch() < r.epoch {
				r.cash.AdvanceEpoch()
			}
			r.beginSwitch()
		}
	}
}

// onSwitchBack returns the group to CheapTiny on the primary's order.
func (r *Replica) onSwitchBack(m Message) {
	if r.mode != ModeMinBFT || m.Epoch != r.epoch || m.From != r.primary() {
		return
	}
	r.doSwitchBack()
}

func (r *Replica) doSwitchBack() {
	r.epoch++
	for r.cash.Epoch() < r.epoch {
		r.cash.AdvanceEpoch()
	}
	r.mode = ModeCheapTiny
	r.quietSince = r.now
	r.panicked = false
}

// Drain returns pending outbound messages.
func (r *Replica) Drain() []Message {
	out := r.out
	r.out = nil
	return out
}
