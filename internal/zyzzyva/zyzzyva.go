// Package zyzzyva implements Zyzzyva speculative BFT (Kotla et al., SOSP
// 2007) as the paper presents it: replicas speculatively execute requests
// in the order the primary assigns, and commitment moves to the client.
//
//	Case 1 (fast path, 1 phase): the client gathers 3f+1 matching
//	speculative responses — every replica executed the request in the
//	same total order — and completes.
//
//	Case 2 (committed path, 3 phases): between 2f+1 and 3f matching
//	responses; the client assembles a commit certificate from 2f+1
//	matching responses, sends it to all replicas, and completes on 2f+1
//	local-commit acknowledgements.
//
// Profile: partially-synchronous, byzantine, *optimistic*, known
// participants, 3f+1 nodes, 1 or 3 phases, O(N) messages.
//
// A primary that stalls or equivocates is caught by client timeouts: the
// client floods the request to all replicas, replicas forward to the
// primary and arm timers, and a PBFT-style view change installs the next
// primary, reconciling histories from 2f+1 view-change reports.
package zyzzyva

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
		Name:         "zyzzyva",
		Failure:      core.Byzantine,
		Strategy:     core.Optimistic,
		NodesFor:     func(f int) int { return quorum.Byzantine{F: f}.Size() },
		NodesFormula: "3f+1",
		QuorumFor:    func(f int) int { return quorum.Byzantine{F: f}.Threshold() },
		CommitPhases: 1,
		AltPhases:    3,
		Complexity:   core.Linear,
		Decomposition: []core.Phase{
			core.LeaderElection, core.ValueDiscovery, core.Decision,
		},
		Notes: "speculative execution; commitment moved to the client",
	})
}

// MsgKind enumerates Zyzzyva message types.
type MsgKind uint8

const (
	MsgRequest MsgKind = iota + 1
	MsgOrderReq
	MsgSpecResponse
	MsgCommitCert
	MsgLocalCommit
	MsgViewChange
	MsgNewView
	MsgFillHole // replica asks the primary to retransmit a slot range
)

func (k MsgKind) String() string {
	switch k {
	case MsgRequest:
		return "request"
	case MsgOrderReq:
		return "order-req"
	case MsgSpecResponse:
		return "spec-response"
	case MsgCommitCert:
		return "commit-cert"
	case MsgLocalCommit:
		return "local-commit"
	case MsgViewChange:
		return "view-change"
	case MsgNewView:
		return "new-view"
	case MsgFillHole:
		return "fill-hole"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// HistEntry is one ordered slot carried in view-change reports.
type HistEntry struct {
	Seq types.Seq
	Req types.Value
}

// Message is a Zyzzyva wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	View     types.View
	Seq      types.Seq
	Req      types.Value
	History  chaincrypto.Digest // speculative history digest after Seq
	Result   types.Value
	// ViewChange/NewView: ordered history above the committed frontier.
	Entries   []HistEntry
	Committed types.Seq
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// Config tunes replicas and clients.
type Config struct {
	F int
	// ClientFastWait is how long a client waits for the full 3f+1
	// matching set before falling back to the committed path. Default 8.
	ClientFastWait int
}

func (c Config) n() int { return quorum.Byzantine{F: c.F}.Size() }

const (
	// clientRetry is how long the client waits overall before
	// suspecting the primary and flooding.
	clientRetry = 50
	// replicaTimeout arms the view-change timer once a forwarded
	// request sits unordered.
	replicaTimeout = 40
)

func (c Config) withDefaults() Config {
	if c.ClientFastWait <= 0 {
		c.ClientFastWait = 8
	}
	return c
}

// Replica is one Zyzzyva server. Its decisions are speculative.
type Replica struct {
	types.Outbox[Message]
	types.Decisions
	id  types.NodeID
	cfg Config
	now int

	view    types.View
	seq     types.Seq // highest speculatively executed
	history chaincrypto.Digest
	histAt  map[types.Seq]chaincrypto.Digest // history digest after each slot
	log     map[types.Seq]types.Value
	// committed is the stable frontier (covered by commit certificates).
	committed types.Seq

	// Pending forwarded requests: digest → since (view-change timers).
	pending map[chaincrypto.Digest]pendRec

	viewChanging bool
	vcTarget     types.View
	vcVotes      map[types.View]map[types.NodeID]Message
}

type pendRec struct {
	req   types.Value
	since int
}

// NewReplica builds a replica.
func NewReplica(id types.NodeID, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	return &Replica{
		id:      id,
		cfg:     cfg,
		log:     make(map[types.Seq]types.Value),
		histAt:  make(map[types.Seq]chaincrypto.Digest),
		pending: make(map[chaincrypto.Digest]pendRec),
		vcVotes: make(map[types.View]map[types.NodeID]Message),
	}
}

func (r *Replica) quorum() int           { return quorum.Byzantine{F: r.cfg.F}.Threshold() }
func (r *Replica) primary() types.NodeID { return r.view.Primary(r.cfg.n()) }

// IsPrimary reports whether this replica leads the current view.
func (r *Replica) IsPrimary() bool { return r.primary() == r.id }

func (r *Replica) send(m Message) {
	m.From = r.id
	r.Post(m)
}

func (r *Replica) broadcast(m Message) {
	for i := range r.cfg.n() {
		if m.To = types.NodeID(i); m.To != r.id {
			r.send(m)
		}
	}
}

// Step consumes one delivered message.
func (r *Replica) Step(m Message) {
	switch m.Kind {
	case MsgSpecResponse, MsgLocalCommit: // client-bound
	case MsgRequest:
		r.onRequest(m)
	case MsgOrderReq:
		r.onOrderReq(m)
	case MsgCommitCert:
		r.onCommitCert(m)
	case MsgViewChange:
		r.onViewChange(m)
	case MsgNewView:
		r.onNewView(m)
	case MsgFillHole:
		r.onFillHole(m)
	}
}

// onRequest: the primary orders; backups forward and arm timers.
func (r *Replica) onRequest(m Message) {
	d := chaincrypto.Hash(m.Req)
	if r.IsPrimary() && !r.viewChanging {
		// A request already in the speculative log is a retransmission:
		// re-issue its order-req so replicas that missed it can catch up.
		for _, s := range det.SortedKeys(r.log) {
			if req := r.log[s]; req.Equal(m.Req) {
				r.broadcast(Message{Kind: MsgOrderReq, View: r.view, Seq: s, Req: req.Clone(), History: r.histAt[s]})
				r.sendResponseFor(s)
				return
			}
		}
		r.seq++
		r.log[r.seq] = m.Req.Clone()
		r.history = chaincrypto.Hash(r.history[:], d[:])
		r.histAt[r.seq] = r.history
		r.Decide(r.seq, m.Req.Clone())
		r.broadcast(Message{Kind: MsgOrderReq, View: r.view, Seq: r.seq, Req: m.Req.Clone(), History: r.history})
		r.sendResponseFor(r.seq)
		return
	}
	if _, ok := r.pending[d]; !ok {
		r.pending[d] = pendRec{req: m.Req.Clone(), since: r.now}
		r.send(Message{Kind: MsgRequest, To: r.primary(), Req: m.Req.Clone()})
	}
}

// onFillHole retransmits order-reqs for a straggler's missing range.
func (r *Replica) onFillHole(m Message) {
	if !r.IsPrimary() || r.viewChanging {
		return
	}
	for s := m.Seq; s <= r.seq && s < m.Seq+32; s++ {
		req, ok := r.log[s]
		if !ok {
			return
		}
		r.send(Message{Kind: MsgOrderReq, To: m.From, View: r.view, Seq: s, Req: req.Clone(), History: r.histAt[s]})
	}
}

// onOrderReq: speculative execution in exactly the assigned order.
func (r *Replica) onOrderReq(m Message) {
	if m.View != r.view || m.From != r.primary() || r.viewChanging {
		return
	}
	if m.Seq <= r.seq {
		// Retransmission of an executed slot: just re-respond so the
		// client can assemble its quorum.
		if cur, ok := r.log[m.Seq]; ok && cur.Equal(m.Req) {
			r.sendResponseFor(m.Seq)
		}
		return
	}
	if m.Seq != r.seq+1 {
		// A gap: ask the primary to retransmit the missing range.
		r.send(Message{Kind: MsgFillHole, To: r.primary(), Seq: r.seq + 1})
		return
	}
	d := chaincrypto.Hash(m.Req)
	want := chaincrypto.Hash(r.history[:], d[:])
	if want != m.History {
		// The primary's claimed history diverges from ours: it
		// equivocated somewhere. Demand a view change.
		r.startViewChange(r.view + 1)
		return
	}
	r.seq = m.Seq
	r.log[m.Seq] = m.Req.Clone()
	r.history = want
	r.histAt[m.Seq] = want
	delete(r.pending, d)
	r.Decide(m.Seq, m.Req.Clone())
	// Reply to every client; in simulation the client ID rides on the
	// request envelope, so respond to the spec-response collector (the
	// client node id is encoded by the harness in To of the original
	// request — here we respond to all known clients via broadcast-free
	// convention: the harness reads responses addressed to the client).
	r.sendResponseFor(m.Seq)
}

// clientOf extracts the requesting client's node id from the request
// envelope (the harness prefixes requests with the client node id).
func clientOf(req types.Value) types.NodeID {
	if len(req) == 0 {
		return -1
	}
	return types.NodeID(req[0])
}

// sendResponseFor emits the speculative response for an executed slot.
// The response carries the history digest *at that slot* so responses
// from replicas at different frontiers still match at the client.
func (r *Replica) sendResponseFor(seq types.Seq) {
	req, ok := r.log[seq]
	if !ok {
		return
	}
	to := clientOf(req)
	if to < 0 {
		return
	}
	// Deterministic "execution result": echo of the request digest. The
	// SMR layer applies real state machines from the decision stream.
	d := chaincrypto.Hash(req)
	r.send(Message{
		Kind: MsgSpecResponse, To: to, View: r.view, Seq: seq,
		History: r.histAt[seq], Result: types.Value(d[:8]), Req: req.Clone(),
	})
}

// onCommitCert: the client proved 2f+1 replicas share our history prefix;
// advance the stable frontier and acknowledge.
func (r *Replica) onCommitCert(m Message) {
	if m.Seq > r.seq {
		return // haven't executed that far; ignore (client keeps trying)
	}
	if m.Seq > r.committed {
		r.committed = m.Seq
	}
	r.send(Message{Kind: MsgLocalCommit, To: m.From, View: r.view, Seq: m.Seq})
}

func (r *Replica) startViewChange(target types.View) {
	if target <= r.view || (r.viewChanging && target <= r.vcTarget) {
		return
	}
	r.viewChanging = true
	r.vcTarget = target
	entries := make([]HistEntry, 0, len(r.log))
	for _, s := range det.SortedKeys(r.log) {
		if s > r.committed {
			entries = append(entries, HistEntry{Seq: s, Req: r.log[s].Clone()})
		}
	}
	vc := Message{Kind: MsgViewChange, View: target, Committed: r.committed, Entries: entries}
	r.record(target, r.id, vc)
	r.broadcast(vc)
}

func (r *Replica) onViewChange(m Message) {
	if m.View <= r.view {
		return
	}
	r.record(m.View, m.From, m)
	if len(r.vcVotes[m.View]) >= r.cfg.F+1 && (!r.viewChanging || r.vcTarget < m.View) {
		r.startViewChange(m.View)
	}
}

func (r *Replica) record(v types.View, from types.NodeID, m Message) {
	votes, ok := r.vcVotes[v]
	if !ok {
		votes = make(map[types.NodeID]Message)
		r.vcVotes[v] = votes
	}
	if _, dup := votes[from]; dup {
		return
	}
	votes[from] = m
	if v.Primary(r.cfg.n()) == r.id && len(votes) >= r.quorum() {
		r.emitNewView(v, votes)
	}
}

// emitNewView reconciles histories: take the highest committed frontier,
// then adopt the longest history that at least f+1 reporters share per
// slot (an honest majority of some quorum); conflicting speculative
// tails are dropped — exactly the speculation Zyzzyva may roll back.
func (r *Replica) emitNewView(v types.View, votes map[types.NodeID]Message) {
	if r.view >= v {
		return
	}
	maxCommitted := types.Seq(0)
	for _, vc := range votes {
		if vc.Committed > maxCommitted {
			maxCommitted = vc.Committed
		}
	}
	// Per-slot value counting above the committed frontier.
	counts := make(map[types.Seq]*quorum.ValueTally)
	vals := make(map[string]types.Value)
	for _, from := range det.SortedKeys(votes) {
		vc := votes[from]
		for _, e := range vc.Entries {
			if e.Seq <= maxCommitted {
				continue
			}
			vt, ok := counts[e.Seq]
			if !ok {
				vt = quorum.NewValueTally(r.cfg.F + 1)
				counts[e.Seq] = vt
			}
			d := chaincrypto.Hash(e.Req)
			key := d.String()
			vt.Add(vc.From, key)
			vals[key] = e.Req
		}
	}
	var entries []HistEntry
	for s := maxCommitted + 1; ; s++ {
		vt, ok := counts[s]
		if !ok {
			break
		}
		key, n := vt.Leader()
		if n < r.cfg.F+1 {
			break // not enough agreement: truncate speculation here
		}
		entries = append(entries, HistEntry{Seq: s, Req: vals[key].Clone()})
	}
	// Broadcast NEW-VIEW before applying locally: applyNewView re-issues
	// order-reqs for pending requests, and those must reach replicas
	// *after* they have entered the new view.
	r.broadcast(Message{Kind: MsgNewView, View: v, Committed: maxCommitted, Entries: entries})
	r.applyNewView(v, maxCommitted, entries)
}

func (r *Replica) onNewView(m Message) {
	if m.View < r.view || m.From != m.View.Primary(r.cfg.n()) {
		return
	}
	r.applyNewView(m.View, m.Committed, m.Entries)
}

// applyNewView rebuilds the speculative log from the reconciled history.
func (r *Replica) applyNewView(v types.View, committed types.Seq, entries []HistEntry) {
	r.view = v
	r.viewChanging = false
	for view := range r.vcVotes {
		if view <= v {
			delete(r.vcVotes, view)
		}
	}
	// Roll back divergent speculation: rebuild log/history from scratch
	// along the reconciled order. Committed prefix must be preserved —
	// by construction entries start after the max committed frontier,
	// and our own committed prefix is never above it (certificates
	// required 2f+1, so the reconciliation saw at least one).
	newLog := make(map[types.Seq]types.Value)
	newHist := make(map[types.Seq]chaincrypto.Digest)
	hist := chaincrypto.Digest{}
	seq := types.Seq(0)
	for s := types.Seq(1); s <= committed; s++ {
		if req, ok := r.log[s]; ok {
			newLog[s] = req
			d := chaincrypto.Hash(req)
			hist = chaincrypto.Hash(hist[:], d[:])
			newHist[s] = hist
			seq = s
		}
	}
	oldSeq := r.seq
	for _, e := range entries {
		newLog[e.Seq] = e.Req.Clone()
		d := chaincrypto.Hash(e.Req)
		hist = chaincrypto.Hash(hist[:], d[:])
		newHist[e.Seq] = hist
		seq = e.Seq
		if e.Seq > oldSeq {
			r.Decide(e.Seq, e.Req.Clone())
		}
	}
	r.log = newLog
	r.histAt = newHist
	r.history = hist
	r.seq = seq
	if committed > r.committed {
		r.committed = committed
	}
	// Refresh pending timers for the new primary.
	for _, d := range det.SortedKeysFunc(r.pending, chaincrypto.Digest.Compare) {
		p := r.pending[d]
		p.since = r.now
		r.pending[d] = p
		if r.IsPrimary() {
			r.Step(Message{Kind: MsgRequest, From: r.id, To: r.id, Req: p.req})
		} else {
			r.send(Message{Kind: MsgRequest, To: r.primary(), Req: p.req.Clone()})
		}
	}
}

// Tick ages pending requests toward view changes.
func (r *Replica) Tick() {
	r.now++
	if r.viewChanging {
		return
	}
	timedOut := false
	for _, p := range r.pending {
		timedOut = timedOut || r.now-p.since > replicaTimeout
	}
	if timedOut {
		r.startViewChange(r.view + 1)
	}
}
