package minbft

import (
	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

// Entry is one ordered slot carried in a report, a new view or an abort
// history: the request a primary proposed at Seq in View (a CheapBFT
// epoch).
type Entry struct {
	Seq  types.Seq
	View types.View
	Req  types.Value
}

// Core is the ordering state of the trusted-counter family. MinBFT runs
// it over all 2f+1 replicas; CheapBFT runs it over its f+1 actives and,
// after CheapSwitch, over all of them — CheapBFT's fallback is this
// package's protocol. Because a USIG or CASH certificate makes a
// primary's proposals one stream nobody can fork, a slot commits on f+1
// matching votes. The protocols decide who may propose, which messages
// count and what a conflict triggers; the Core owns the rest: the slot
// table and its commit tallies, the pending requests and their ages,
// slot numbering and the contiguous execute loop, a replica's report,
// and the install step a view change or a switch ends with.
type Core struct {
	types.Decisions
	quorum int
	now    int

	slots   map[types.Seq]*slot
	next    types.Seq // highest slot number proposed or accepted
	exec    types.Seq
	settled types.Seq // highest merged frontier installed; may pass exec

	pending map[chaincrypto.Digest]pend
	done    map[chaincrypto.Digest]bool
}

type slot struct {
	req       types.Value
	digest    chaincrypto.Digest
	view      types.View // view (epoch) the request was proposed in
	commits   *quorum.Tally
	committed bool
	started   int // tick the slot was created, proposed or accepted
}

type pend struct {
	req   types.Value
	since int
}

// NewCore returns a replica's ordering state in a group tolerating f
// faults: f+1 matching votes commit a slot.
func NewCore(f int) *Core {
	return &Core{
		quorum:  f + 1,
		slots:   make(map[types.Seq]*slot),
		pending: make(map[chaincrypto.Digest]pend),
		done:    make(map[chaincrypto.Digest]bool),
	}
}

// Tick advances the clock pending requests and proposals age by.
func (c *Core) Tick() { c.now++ }

// Now returns the core's tick count.
func (c *Core) Now() int { return c.now }

// ExecutedFrontier returns the contiguous executed slot frontier.
func (c *Core) ExecutedFrontier() types.Seq { return c.exec }

func (c *Core) slot(seq types.Seq) *slot {
	s, ok := c.slots[seq]
	if !ok {
		s = &slot{commits: quorum.NewTally(c.quorum), started: c.now}
		c.slots[seq] = s
	}
	return s
}

// Pend records req as waiting to be ordered. fresh reports that it was
// not waiting already; ok is false, and nothing is recorded, when req
// has executed.
func (c *Core) Pend(req types.Value) (fresh, ok bool) {
	d := chaincrypto.Hash(req)
	if c.done[d] {
		return false, false
	}
	if _, waiting := c.pending[d]; waiting {
		return false, true
	}
	c.pending[d] = pend{req: req.Clone(), since: c.now}
	return true, true
}

// Idle reports whether no request is waiting to be ordered.
func (c *Core) Idle() bool { return len(c.pending) == 0 }

// Pending returns the requests waiting to be ordered, in digest order.
func (c *Core) Pending() []types.Value {
	reqs := make([]types.Value, 0, len(c.pending))
	for _, d := range det.SortedKeysFunc(c.pending, chaincrypto.Digest.Compare) {
		reqs = append(reqs, c.pending[d].req)
	}
	return reqs
}

// Waiting reports whether some request has waited longer than age ticks.
func (c *Core) Waiting(age int) bool {
	for _, p := range c.pending {
		if c.now-p.since > age {
			return true
		}
	}
	return false
}

// Resend returns, in digest order, the requests that have waited longer
// than age ticks, and restarts their clocks.
func (c *Core) Resend(age int) []types.Value {
	var reqs []types.Value
	for _, d := range det.SortedKeysFunc(c.pending, chaincrypto.Digest.Compare) {
		if p := c.pending[d]; c.now-p.since > age {
			p.since = c.now
			c.pending[d] = p
			reqs = append(reqs, p.req)
		}
	}
	return reqs
}

// Stuck reports whether a proposal above the executed frontier has gone
// uncommitted for longer than age ticks.
func (c *Core) Stuck(age int) bool {
	for seq, s := range c.slots {
		if seq > c.exec && s.req != nil && !s.committed && c.now-s.started > age {
			return true
		}
	}
	return false
}

// ordered reports whether a slot already holds the request with digest d.
func (c *Core) ordered(d chaincrypto.Digest) bool {
	for _, s := range c.slots {
		if s.digest == d && s.req != nil {
			return true
		}
	}
	return false
}

// Propose is the primary's ordering step in view v: it assigns req the
// next fresh slot and returns it with req's digest, or ok false if a
// slot already holds req. The primary's vote is the caller's to count
// (Commit), after it has sent the proposal.
func (c *Core) Propose(req types.Value, v types.View) (seq types.Seq, d chaincrypto.Digest, ok bool) {
	d = chaincrypto.Hash(req)
	if c.ordered(d) {
		return 0, d, false
	}
	c.next++
	c.hold(c.slot(c.next), req, d, v)
	return c.next, d, true
}

func (c *Core) hold(s *slot, req types.Value, d chaincrypto.Digest, v types.View) {
	s.req = req.Clone()
	s.digest = d
	s.view = v
	s.started = c.now
}

// Accept records the primary's proposal of req (digest d) at seq in view
// v. It returns false, changing nothing, when seq already holds a
// different request: proof of a faulty primary, which the protocol
// answers with a view change or a PANIC.
func (c *Core) Accept(seq types.Seq, req types.Value, d chaincrypto.Digest, v types.View) bool {
	s := c.slot(seq)
	if s.req != nil && s.digest != d {
		return false
	}
	c.hold(s, req, d, v)
	delete(c.pending, d)
	c.next = max(c.next, seq)
	return true
}

// Commit counts voters' commits of req (digest d) at seq in view v,
// adopting req if the slot is still empty — a commit is only sent after
// its sender accepted the primary's certified proposal. A commit of a
// different request than the slot holds is ignored. It returns the
// decisions the votes executed.
func (c *Core) Commit(seq types.Seq, req types.Value, d chaincrypto.Digest, v types.View, voters ...types.NodeID) []types.Decision {
	s := c.slot(seq)
	if s.req == nil {
		c.hold(s, req, d, v)
	}
	if s.digest != d {
		return nil
	}
	for _, id := range voters {
		s.commits.Add(id)
	}
	if s.committed || s.req == nil || !s.commits.Reached() {
		return nil
	}
	s.committed = true
	return c.executeReady()
}

// executeReady executes every committed slot contiguous with the
// frontier and returns the new decisions (valid until TakeDecisions).
func (c *Core) executeReady() []types.Decision {
	from := len(c.Decided())
	for {
		s, ok := c.slots[c.exec+1]
		if !ok || !s.committed {
			return c.Decided()[from:]
		}
		c.exec++
		c.Decide(c.exec, s.req)
		c.done[s.digest] = true
		delete(c.pending, s.digest)
	}
}

// Learn executes req at seq on another replica's word (CheapTiny's
// updates to passive replicas), if seq is the next slot to execute.
func (c *Core) Learn(seq types.Seq, req types.Value) {
	if seq != c.exec+1 {
		return
	}
	c.exec = seq
	c.Decide(seq, req.Clone())
	d := chaincrypto.Hash(req)
	c.done[d] = true
	delete(c.pending, d)
}

// Consistent reports whether entries agree with every executed slot
// this replica still holds.
func (c *Core) Consistent(entries []Entry) bool {
	for _, e := range entries {
		if s, ok := c.slots[e.Seq]; ok && e.Seq <= c.exec && s.req != nil && !s.req.Equal(e.Req) {
			return false
		}
	}
	return true
}

// Report is what a replica contributes to a view change or a switch:
// the highest slot it knows decided, and every slot it holds above it.
type Report struct {
	Executed types.Seq
	Entries  []Entry
}

// Report returns this replica's report. A replica that installed a view
// whose merged frontier is past its own execution reports that frontier:
// it dropped what it held below it, and a report that claimed less would
// let the next merge hand those decided slots out again.
func (c *Core) Report() Report {
	rep := Report{Executed: max(c.exec, c.settled), Entries: make([]Entry, 0, len(c.slots))}
	for _, seq := range det.SortedKeys(c.slots) {
		if s := c.slots[seq]; seq > rep.Executed && s.req != nil {
			rep.Entries = append(rep.Entries, Entry{Seq: seq, View: s.view, Req: s.req.Clone()})
		}
	}
	return rep
}

// Reports are the reports one view change or switch has gathered, by
// sender.
type Reports map[types.NodeID]Report

// Add records from's report, copying the entries a message lent it. A
// sender's first report stands; Add reports whether this one was new.
func (rs Reports) Add(from types.NodeID, executed types.Seq, entries []Entry) bool {
	if _, dup := rs[from]; dup {
		return false
	}
	rs[from] = Report{Executed: executed, Entries: append([]Entry(nil), entries...)}
	return true
}

// Merge combines f+1 reports into what view v starts from: the highest
// executed frontier, and above it every reported slot holding the
// request proposed in the highest view below v (the lowest sender
// breaking ties). Against crashes nothing committed is lost: of 2f+1
// replicas, a slot's f+1 commit votes and the f+1 reports share one, and
// a replica that reports is not crashed, so it has executed the slot or
// reports it; no later view can have proposed anything else there, as
// each new view re-proposes the slot at the same number. A byzantine
// replica in that share breaks the argument: reports are self-asserted,
// not certified, so it can hide a slot or claim another request at it
// under a later view. The one lever Merge denies it is a view tag at or
// past v, which no correct report carries.
func (rs Reports) Merge(v types.View) (types.Seq, []Entry) {
	var exec types.Seq
	for _, r := range rs {
		exec = max(exec, r.Executed)
	}
	merged := make(map[types.Seq]Entry)
	for _, from := range det.SortedKeys(rs) {
		for _, e := range rs[from].Entries {
			if had, ok := merged[e.Seq]; e.Seq > exec && e.View < v && (!ok || e.View > had.View) {
				merged[e.Seq] = e
			}
		}
	}
	entries := make([]Entry, 0, len(merged))
	for _, seq := range det.SortedKeys(merged) {
		e := merged[seq]
		entries = append(entries, Entry{Seq: seq, View: e.View, Req: e.Req.Clone()})
	}
	return exec, entries
}

// Install starts view v from a merged frontier and its survivors. Every
// uncommitted slot is dropped and its request waits again; each
// survivor above this replica's own frontier takes its own slot, tagged
// v, to wait for the primary's re-proposal; numbering continues past
// both the merged frontier and the survivors; and every pending
// request's clock restarts. For v's primary (lead), Install returns what
// it must propose, in order: every survivor at its own slot, then each
// pending request at a fresh one.
func (c *Core) Install(v types.View, executed types.Seq, survivors []Entry, lead bool) []Entry {
	for seq, s := range c.slots {
		if !s.committed {
			delete(c.slots, seq)
			if s.req != nil && !c.done[s.digest] {
				c.pending[s.digest] = pend{req: s.req}
			}
		}
	}
	for _, e := range survivors {
		if e.Seq <= c.exec {
			continue
		}
		if s := c.slot(e.Seq); !s.committed {
			c.hold(s, e.Req, chaincrypto.Hash(e.Req), v)
			if !c.done[s.digest] {
				c.pending[s.digest] = pend{req: s.req}
			}
		}
	}
	c.settled = max(c.settled, executed)
	c.next = max(c.next, c.exec, c.settled)
	for seq := range c.slots {
		c.next = max(c.next, seq)
	}
	for d, p := range c.pending {
		p.since = c.now
		c.pending[d] = p
	}
	if !lead {
		return nil
	}
	props := append([]Entry(nil), survivors...)
	for _, req := range c.Pending() {
		if seq, _, ok := c.Propose(req, v); ok {
			props = append(props, Entry{Seq: seq, View: v, Req: req})
		}
	}
	return props
}
