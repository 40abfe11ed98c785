// Package hotstuff implements chained HotStuff (Yin et al., PODC 2019),
// the linear-communication BFT protocol the paper highlights (and the
// basis of Facebook's LibraBFT): 3f+1 replicas, quorums of 2f+1, leader
// rotation every view, and each n-to-n phase of PBFT replaced by an
// n-to-1 vote collection plus a 1-to-n certificate broadcast.
//
// Quorum certificates stand in for the paper's (k,n)-threshold
// signatures (see internal/chaincrypto): the leader aggregates 2f+1
// Ed25519 vote shares over the block digest, which preserves the linear
// communication pattern the protocol's complexity claim rests on.
//
// The chained formulation pipelines the slides' four phases (prepare,
// pre-commit, commit, decide): every view carries a fresh proposal, and
// a block commits once it heads a three-chain of consecutive-view
// certified blocks — so in steady state one block commits per view.
//
// Profile: partially-synchronous, byzantine, pessimistic, known
// participants, 3f+1 nodes, 7 phases end-to-end (per the slide's count
// of message delays including the request/reply), O(N) messages, linear
// view change (the new-view message carries one certificate).
package hotstuff

import (
	"fmt"
	"sort"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/core"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:                 "hotstuff",
		Synchrony:            core.PartiallySynchronous,
		Failure:              core.Byzantine,
		Strategy:             core.Pessimistic,
		Awareness:            core.KnownParticipants,
		NodesFor:             func(f int) int { return quorum.Byzantine{F: f}.Size() },
		NodesFormula:         "3f+1",
		QuorumFor:            func(f int) int { return quorum.Byzantine{F: f}.Threshold() },
		CommitPhases:         7,
		Complexity:           core.Linear,
		ViewChangeComplexity: core.Linear,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.FTAgreement, core.Decision,
		},
		Notes: "leader rotation per view; request pipelining; threshold-signature QCs",
	})
}

// Block is one node of the block tree. Each block carries a batch of
// client requests and a certificate for its parent.
type Block struct {
	Height  uint64
	View    types.View
	Parent  chaincrypto.Digest
	Batch   []types.Value
	Justify chaincrypto.QC
}

// Hash returns the block's digest (excluding the justify signatures, so
// equal content hashes equally regardless of which 2f+1 shares formed
// the QC).
func (b Block) Hash() chaincrypto.Digest {
	parts := [][]byte{
		chaincrypto.HashUint64(b.Height),
		chaincrypto.HashUint64(uint64(b.View)),
		b.Parent[:],
		b.Justify.Digest[:],
	}
	for _, v := range b.Batch {
		parts = append(parts, v)
	}
	return chaincrypto.Hash(parts...)
}

// MsgKind enumerates HotStuff message types.
type MsgKind uint8

const (
	MsgProposal MsgKind = iota + 1
	MsgVote
	MsgNewView
	MsgRequest
)

func (k MsgKind) String() string {
	switch k {
	case MsgProposal:
		return "proposal"
	case MsgVote:
		return "vote"
	case MsgNewView:
		return "new-view"
	case MsgRequest:
		return "request"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Message is a HotStuff wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	View     types.View
	Block    Block
	BlockID  chaincrypto.Digest
	Share    chaincrypto.PartialSig
	HighQC   chaincrypto.QC
	Req      types.Value
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config tunes a replica.
type Config struct {
	F int
	// ViewTimeout is how long a replica waits in a view before moving
	// on. Default 20.
	ViewTimeout int
	// MaxBatch bounds requests per block. Default 16.
	MaxBatch int
}

func (c Config) n() int { return quorum.Byzantine{F: c.F}.Size() }

func (c Config) withDefaults() Config {
	if c.ViewTimeout <= 0 {
		c.ViewTimeout = 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	return c
}

// Replica is one HotStuff node.
type Replica struct {
	id   types.NodeID
	cfg  Config
	keys *chaincrypto.Keyring // every replica derives the same ring

	view      types.View
	viewTimer int

	blocks  map[chaincrypto.Digest]Block
	genesis chaincrypto.Digest

	lockedQC chaincrypto.QC // commit-phase lock
	highQC   chaincrypto.QC // prepare-phase certificate (highest known)
	lastVote types.View     // highest view voted in

	// Leader vote collection: per block digest.
	votes map[chaincrypto.Digest][]chaincrypto.PartialSig
	// NewView collection per view (leader side).
	newViews map[types.View]map[types.NodeID]chaincrypto.QC

	executed  uint64 // committed height frontier
	execSlot  types.Seq
	decisions []types.Decision

	pending []types.Value
	done    map[chaincrypto.Digest]bool

	committedViews int // metric: blocks committed

	out []Message
}

// NewReplica builds a replica.
func NewReplica(id types.NodeID, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	g := Block{Height: 0}
	r := &Replica{
		id:       id,
		cfg:      cfg,
		keys:     chaincrypto.NewKeyring(cfg.n(), 0x40757ff),
		blocks:   map[chaincrypto.Digest]Block{g.Hash(): g},
		genesis:  g.Hash(),
		votes:    make(map[chaincrypto.Digest][]chaincrypto.PartialSig),
		newViews: make(map[types.View]map[types.NodeID]chaincrypto.QC),
		done:     make(map[chaincrypto.Digest]bool),
	}
	r.highQC = chaincrypto.QC{Digest: r.genesis}
	r.lockedQC = chaincrypto.QC{Digest: r.genesis}
	r.view = 1
	r.viewTimer = cfg.ViewTimeout
	return r
}

func (r *Replica) quorum() int { return quorum.Byzantine{F: r.cfg.F}.Threshold() }

func (r *Replica) leaderOf(v types.View) types.NodeID { return v.Primary(r.cfg.n()) }

// CommittedBlocks returns how many blocks this replica has committed.
func (r *Replica) CommittedBlocks() int { return r.committedViews }

// TakeDecisions drains committed request decisions in order.
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
	for i := 0; i < r.cfg.n(); i++ {
		if types.NodeID(i) == r.id {
			continue
		}
		mm := m
		mm.To = types.NodeID(i)
		r.send(mm)
	}
}

// Submit queues a client request for inclusion in a future block.
func (r *Replica) Submit(req types.Value) {
	d := chaincrypto.Hash(req)
	if r.done[d] {
		return
	}
	r.pending = append(r.pending, req.Clone())
}

// Step consumes one delivered message.
func (r *Replica) Step(m Message) {
	switch m.Kind {
	case MsgRequest:
		r.Submit(m.Req)
	case MsgProposal:
		r.onProposal(m)
	case MsgVote:
		r.onVote(m)
	case MsgNewView:
		r.onNewView(m)
	}
}

// blockOf resolves a QC's block.
func (r *Replica) blockOf(qc chaincrypto.QC) (Block, bool) {
	b, ok := r.blocks[qc.Digest]
	return b, ok
}

// extends reports whether block a (transitively) extends the block with
// digest anc.
func (r *Replica) extends(a Block, anc chaincrypto.Digest) bool {
	cur := a
	for {
		if cur.Hash() == anc {
			return true
		}
		if cur.Height == 0 {
			return false
		}
		parent, ok := r.blocks[cur.Parent]
		if !ok {
			return false
		}
		cur = parent
	}
}

func (r *Replica) onProposal(m Message) {
	b := m.Block
	id := b.Hash()
	// Verify the justify certificate (genesis QCs are empty).
	if b.Justify.Digest != r.genesis || len(b.Justify.Sigs) > 0 {
		if err := chaincrypto.VerifyQC(r.keys, b.Justify, r.quorum()); err != nil {
			return
		}
	}
	if m.From != r.leaderOf(b.View) {
		return
	}
	parent, ok := r.blocks[b.Parent]
	if !ok || parent.Hash() != b.Justify.Digest {
		return // proposals must extend their own certificate's block
	}
	if b.Height != parent.Height+1 {
		return
	}
	r.blocks[id] = b
	r.updateQCs(b.Justify)

	// Voting rule: vote once per view, for proposals extending the
	// locked block or carrying a newer certificate than the lock.
	if b.View < r.view || b.View <= r.lastVote {
		return
	}
	lockedBlock, hasLocked := r.blockOf(r.lockedQC)
	safe := !hasLocked || r.extends(b, r.lockedQC.Digest)
	if !safe {
		if jb, ok := r.blockOf(b.Justify); ok && jb.View > lockedBlock.View {
			safe = true // liveness rule
		}
	}
	if !safe {
		return
	}
	r.lastVote = b.View
	// Entering the proposal's view (proposals carry their own proof of
	// progress via the justify QC).
	if b.View >= r.view {
		r.advanceTo(b.View + 1)
	}
	share := chaincrypto.PartialSig{Node: r.id, Sig: r.keys.Sign(r.id, id[:])}
	next := r.leaderOf(b.View + 1)
	if next == r.id {
		r.collectVote(id, share)
	} else {
		r.send(Message{Kind: MsgVote, To: next, View: b.View, BlockID: id, Share: share})
	}
}

func (r *Replica) onVote(m Message) {
	r.collectVote(m.BlockID, m.Share)
}

func (r *Replica) collectVote(id chaincrypto.Digest, share chaincrypto.PartialSig) {
	if _, ok := r.blocks[id]; !ok {
		return
	}
	for _, s := range r.votes[id] {
		if s.Node == share.Node {
			return
		}
	}
	if !r.keys.Verify(share.Node, id[:], share.Sig) {
		return
	}
	r.votes[id] = append(r.votes[id], share)
	if len(r.votes[id]) < r.quorum() {
		return
	}
	qc, err := chaincrypto.Aggregate(r.keys, id, r.votes[id], r.quorum())
	if err != nil {
		return
	}
	delete(r.votes, id)
	r.updateQCs(qc)
	// As leader of the next view, propose immediately on QC formation —
	// this is the pipeline: a proposal per view, one view per QC.
	b := r.blocks[id]
	if r.leaderOf(b.View+1) == r.id && b.View+1 >= r.view {
		r.proposeAt(b.View + 1)
	}
}

// updateQCs runs the chained-commit bookkeeping: raise highQC, raise the
// lock on a two-chain, execute on a three-chain of consecutive heights.
func (r *Replica) updateQCs(qc chaincrypto.QC) {
	bNew, ok := r.blockOf(qc)
	if !ok {
		return
	}
	if cur, ok := r.blockOf(r.highQC); !ok || bNew.Height > cur.Height {
		r.highQC = qc
	}
	// b'' ← qc.block, b' ← b''.justify.block, b ← b'.justify.block
	b2 := bNew
	b1, ok := r.blockOf(b2.Justify)
	if !ok {
		return
	}
	if cur, ok := r.blockOf(r.lockedQC); !ok || b1.Height > cur.Height {
		r.lockedQC = b2.Justify
	}
	b0, ok := r.blockOf(b1.Justify)
	if !ok {
		return
	}
	// Three-chain with direct parent links commits b0.
	if b2.Parent == b1.Hash() && b1.Parent == b0.Hash() {
		r.executeTo(b0)
	}
}

// executeTo commits b0 and all uncommitted ancestors in height order.
func (r *Replica) executeTo(b0 Block) {
	if b0.Height <= r.executed {
		return
	}
	var chain []Block
	cur := b0
	for cur.Height > r.executed {
		chain = append(chain, cur)
		parent, ok := r.blocks[cur.Parent]
		if !ok {
			return // missing ancestry; wait for catch-up via proposals
		}
		cur = parent
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].Height < chain[j].Height })
	for _, b := range chain {
		r.executed = b.Height
		r.committedViews++
		for _, req := range b.Batch {
			d := chaincrypto.Hash(req)
			if r.done[d] {
				continue
			}
			r.done[d] = true
			r.execSlot++
			r.decisions = append(r.decisions, types.Decision{Slot: r.execSlot, Val: req.Clone()})
		}
	}
}

// proposeAt creates and broadcasts this leader's block for view v,
// extending the highest certified block.
func (r *Replica) proposeAt(v types.View) {
	parent, ok := r.blockOf(r.highQC)
	if !ok {
		return
	}
	var batch []types.Value
	var rest []types.Value
	for _, req := range r.pending {
		d := chaincrypto.Hash(req)
		if r.done[d] || r.inFlight(d) {
			continue
		}
		if len(batch) < r.cfg.MaxBatch {
			batch = append(batch, req)
		} else {
			rest = append(rest, req)
		}
	}
	r.pending = rest
	b := Block{
		Height:  parent.Height + 1,
		View:    v,
		Parent:  parent.Hash(),
		Batch:   batch,
		Justify: r.highQC,
	}
	id := b.Hash()
	r.blocks[id] = b
	r.advanceTo(v + 1)
	r.broadcast(Message{Kind: MsgProposal, View: v, Block: b})
	// Vote for own proposal.
	r.lastVote = v
	share := chaincrypto.PartialSig{Node: r.id, Sig: r.keys.Sign(r.id, id[:])}
	next := r.leaderOf(v + 1)
	if next == r.id {
		r.collectVote(id, share)
	} else {
		r.send(Message{Kind: MsgVote, To: next, View: v, BlockID: id, Share: share})
	}
}

// inFlight reports whether a request already sits in an uncommitted
// block on the current chain.
func (r *Replica) inFlight(d chaincrypto.Digest) bool {
	cur, ok := r.blockOf(r.highQC)
	for ok && cur.Height > r.executed {
		for _, req := range cur.Batch {
			if chaincrypto.Hash(req) == d {
				return true
			}
		}
		cur, ok = r.blocks[cur.Parent]
	}
	return false
}

func (r *Replica) advanceTo(v types.View) {
	if v <= r.view {
		return
	}
	r.view = v
	r.viewTimer = r.cfg.ViewTimeout
}

// onNewView: the leader of view v collects 2f+1 new-view messages (each
// carrying the sender's highQC) and proposes — the linear view change.
func (r *Replica) onNewView(m Message) {
	if m.View < r.view || r.leaderOf(m.View) != r.id {
		return
	}
	if m.HighQC.Digest != r.genesis || len(m.HighQC.Sigs) > 0 {
		if err := chaincrypto.VerifyQC(r.keys, m.HighQC, r.quorum()); err != nil {
			return
		}
	}
	// Adopt the certificate if we know its block.
	r.updateQCs(m.HighQC)
	set, ok := r.newViews[m.View]
	if !ok {
		set = make(map[types.NodeID]chaincrypto.QC)
		r.newViews[m.View] = set
	}
	set[m.From] = m.HighQC
	if len(set) >= r.quorum()-1 { // plus self
		delete(r.newViews, m.View)
		if m.View >= r.view {
			r.proposeAt(m.View)
		}
	}
}

// Tick drives the pacemaker: a view that stalls times out and the
// replica sends new-view to the next leader.
func (r *Replica) Tick() {
	r.viewTimer--
	if r.viewTimer > 0 {
		return
	}
	next := r.view // current view's leader failed us; move on
	r.advanceTo(next + 1)
	lead := r.leaderOf(r.view)
	if lead == r.id {
		r.proposeAt(r.view)
		return
	}
	r.send(Message{Kind: MsgNewView, To: lead, View: r.view, HighQC: r.highQC})
}

// Drain returns pending outbound messages.
func (r *Replica) Drain() []Message {
	out := r.out
	r.out = nil
	return out
}
