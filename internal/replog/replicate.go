package replog

import (
	"fmt"

	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// Log replication, the half of Raft that Multi-Paxos shares (Howard &
// Mortier): a leader appends, sends each follower what it lacks, and
// commits an entry of its own term once a quorum holds it, which commits
// everything below it. A commit is not a message: the commit index rides
// whichever append leaves next and, when no entries wait, the heartbeat.
// Phase 2 goes to a quorum: a new entry leaves at once only for the
// Q2−1 followers that have acknowledged most, and every other follower
// is sent what it lacks once a tick.

// Kind enumerates the replication messages.
type Kind uint8

const (
	Append     Kind = iota + 1 // entries after (PrevIndex, PrevTerm), and the commit index
	AppendResp                 // an append's ack (Success) or reject (the PrevIndex it refused)
	Snap                       // one chunk of an encoded snapshot
	SnapResp                   // a chunk's ack: the offset wanted next, or the install report
	Read                       // ReadIndex probe: is this still the leader's term?
	ReadResp                   // the probe's answer, under the answerer's term
)

// Msg is a replication message; a backend carries it in its own wire
// type (Elector.Wire) and hands it back to Replicate.
type Msg struct {
	Kind      Kind
	From, To  types.NodeID
	Term      uint64
	PrevIndex types.Seq // Append: the entry before Entries; reject: the one refused; Snap: the snapshot's last index
	PrevTerm  uint64
	Entries   []Entry
	Commit    types.Seq // Append, Snap: the leader's commit index
	Success   bool      // on a Snap, asks for an answer even from a follower that holds the chunk
	Match     types.Seq // AppendResp: the follower's match, or where to resume on a reject
	Val       types.Value
	Offset    uint32 // Snap: the chunk's offset; SnapResp: the offset wanted next
	Done      bool   // Snap: the chunk completes the snapshot; SnapResp: the install finished
	Read      uint64 // the leader's newest read round on Read and Append, echoed in their answers
}

// maxBatch bounds the entries one append carries, and
// snapshot.BatchBytes their values.
const maxBatch = 64

// send stamps m and posts it as the backend's message. It lends Wire a
// message the core holds, so no send allocates one.
func (c *Core[M]) send(m Msg) {
	c.sending = m
	c.sending.From = c.id
	c.sending.Term = c.el.Term()
	c.Post(c.el.Wire(&c.sending))
}

// Replicate consumes one delivered replication message; the backend has
// already taken any higher term it carries.
func (c *Core[M]) Replicate(m Msg) {
	switch m.Kind {
	case Append:
		c.onAppend(m)
	case AppendResp:
		c.onAppendResp(m)
	case Snap:
		c.onSnap(m)
	case SnapResp:
		c.onSnapResp(m)
	case Read:
		c.onRead(m)
	case ReadResp:
		if c.Leading() && m.Term == c.el.Term() {
			c.reads.Answer(m.From, m.Read)
		}
	}
}

// Propose appends a value under the node's term, as leader, and sends it
// to the Q2−1 followers that have acknowledged most, or to every peer
// when all is set (a membership change). The caller yields ownership:
// per the types.Value discipline the payload is immutable from here on,
// so it is logged by reference.
func (c *Core[M]) Propose(v types.Value, all bool) {
	c.appendEntry(Entry{Term: c.el.Term(), Val: v})
	c.maybeCommit() // a single-node cluster commits immediately
	to := c.peers
	if !all {
		ms, q2, _ := c.el.Quorum(c.last)
		to = quorum.Pick(c.picks, ms, c.id, q2, func(p types.NodeID) types.Seq { return c.prs[p].match })
		c.picks = to
	}
	for _, p := range to {
		if p != c.id {
			c.replicateTo(p)
		}
	}
}

// appendEntry appends one entry at last+1.
func (c *Core[M]) appendEntry(e Entry) {
	c.last++
	*c.log.At(c.last) = e
	c.tail = max(c.tail, c.last)
	c.touch(c.last)
	c.el.Appended(c.last, e.Val)
}

// truncateFrom drops log entries at index i and above; an acceptor's
// store keeps them.
func (c *Core[M]) truncateFrom(i types.Seq) {
	c.el.Truncated(i)
	if !c.keep {
		c.log.TruncateFrom(i)
		c.tail = i - 1
	}
	c.last = i - 1
	c.touch(i)
}

// Held copies every entry the store holds past index i: what a Prepare
// is answered with.
func (c *Core[M]) Held(i types.Seq) []Entry {
	var out []Entry
	for j := max(i, c.snapIndex) + 1; j <= c.tail; j++ {
		out = append(out, *c.log.Get(j))
	}
	return out
}

// Lead starts leading over the log as it stands plus tail: a peer acked
// names is known to hold the log through the index it maps to, and is
// fed from there; any other is first probed just past the log's end. The
// heartbeat announces the term.
func (c *Core[M]) Lead(tail []Entry, acked map[types.NodeID]types.Seq) {
	c.prs = make(map[types.NodeID]*progress, len(c.peers))
	for _, p := range c.peers {
		if p == c.id {
			continue
		}
		c.prs[p] = &progress{next: c.last + 1}
		if m, ok := acked[p]; ok && m >= c.snapIndex {
			m = min(m, c.commit)
			c.prs[p] = &progress{state: stateReplicate, match: m, next: m + 1}
		}
	}
	for _, e := range tail {
		c.appendEntry(e)
	}
	c.readFloor = c.last
	c.maybeCommit() // a single-node cluster commits immediately
	c.hbIn = c.timers.HeartbeatTicks
	c.pass(true) // announce the term: the first probe of every follower
}

// Acked records, as leader, that p's log is the decided one through idx
// (a Paxos acker's frontier), and feeds p from there.
func (c *Core[M]) Acked(p types.NodeID, idx types.Seq) {
	if pr := c.prs[p]; pr != nil && idx >= c.snapIndex {
		c.onMatched(p, pr, min(idx, c.commit))
	}
}

// Unlead drops the leader's state and its waiting reads.
func (c *Core[M]) Unlead() {
	c.prs = nil
	c.reads.Reset()
}

// Rewind drops every entry from i on: a Paxos leader's own tail, which
// the merge of phase 1 then replaces.
func (c *Core[M]) Rewind(i types.Seq) { c.truncateFrom(i) }

// SetPeers makes ms, sorted, the peers a leader replicates to. A leader
// keeps the progress of peers that stay, and probes a new one with its
// last entry.
func (c *Core[M]) SetPeers(ms []types.NodeID) {
	old := c.peers
	c.peers = ms
	if c.prs == nil {
		return
	}
	prs := make(map[types.NodeID]*progress, len(ms))
	for _, p := range ms {
		if p == c.id {
			continue
		}
		pr := c.prs[p]
		if pr == nil {
			pr = &progress{next: c.last}
			c.sendNext(p, pr)
		}
		prs[p] = pr
	}
	// A peer that left is sent what it has not been sent one last time,
	// which ends with the entry removing it: a node that never learns it
	// was voted out keeps campaigning against the members that remain.
	// Then it is forgotten (a node re-admitted under the same ID must not
	// inherit a match it may no longer hold).
	for _, p := range old {
		if pr := c.prs[p]; pr != nil && prs[p] == nil {
			c.sendNext(p, pr)
		}
	}
	c.prs = prs
}

// progressState says how the leader is feeding one follower.
type progressState uint8

const (
	// stateProbe: the leader does not know where the follower's log
	// ends. One append starting at next is outstanding and next stays
	// put; only its ack, its reject or the heartbeat sends again.
	stateProbe progressState = iota
	// stateReplicate: the follower's log matches the leader's through
	// match. Sends are optimistic: next moves past whatever leaves, so
	// every entry leaves once.
	stateReplicate
	// stateSnapshot: the entries the follower needs are compacted away.
	// One chunk at snapOff is outstanding; only its ack, its nack or the
	// heartbeat sends again.
	stateSnapshot
)

// progress is the leader's record of one follower (etcd-raft's
// Progress, minus the in-flight window: maxBatch and the acks pace
// catch-up). The zero state is a probe.
type progress struct {
	state    progressState
	match    types.Seq // highest index known to be in the follower's log
	next     types.Seq // first index not sent yet (the probe's first index while probing)
	stale    types.Seq // next at the previous tick: what lies below it had a whole tick to be acknowledged
	told     types.Seq // 1 + the commit index of the last append this heartbeat interval; 0 = none sent
	behind   bool      // the last append stopped short of the log's end: its ack sends the next
	snapOff  int       // offset of the outstanding snapshot chunk
	snapSeen int       // snapOff at the last heartbeat
}

// replicateTo sends p what it has not been sent, if it is replicating and
// there is any: a commit advance alone is no reason (the commit index
// rides the next append, or the heartbeat).
func (c *Core[M]) replicateTo(p types.NodeID) {
	// nil: not leading any more — the commit that brought us here was of
	// our own removal, and a node that has stepped down sends no appends.
	if pr := c.prs[p]; pr != nil && pr.state == stateReplicate && pr.next <= c.last {
		c.sendNext(p, pr)
	}
}

// Beat is a leader's tick: every HeartbeatTicks it is the heartbeat.
func (c *Core[M]) Beat() {
	c.hbIn--
	beat := c.hbIn <= 0
	if beat {
		c.hbIn = c.timers.HeartbeatTicks
	}
	c.pass(beat)
	c.reask(beat)
}

// pass, every tick, sends each replicating follower one batch of what it
// lacks, so a stalled pick delays a commit by a tick at most. On a beat
// it is the heartbeat: what is unacknowledged since before the previous
// tick (lost) is rewound, a probe or chunk repeated, and a follower no
// append this interval told the commit index gets an empty one.
func (c *Core[M]) pass(beat bool) {
	for _, p := range c.peers {
		if p == c.id {
			continue
		}
		pr := c.prs[p]
		if beat && pr.state == stateReplicate && pr.match+1 < pr.stale {
			pr.next = pr.match + 1
		}
		pr.stale = pr.next
		switch {
		case pr.state == stateSnapshot:
			if beat {
				// A transfer that stood still for a whole interval lost a chunk
				// or the answer to it: the resend asks for an answer.
				c.sendSnapChunk(p, pr.snapOff, pr.snapOff == pr.snapSeen)
				pr.snapSeen = pr.snapOff
			}
		case pr.state == stateReplicate && pr.next <= c.last,
			beat && (pr.state == stateProbe || pr.told != c.commit+1):
			c.sendNext(p, pr)
		}
		if beat {
			pr.told = 0
		}
	}
}

// sendNext sends p one frame unconditionally: the outstanding snapshot
// chunk when the entries it needs are compacted away, else an append
// carrying entries [next, next+maxBatch) — none if next is past the log,
// which is the heartbeat.
func (c *Core[M]) sendNext(p types.NodeID, pr *progress) {
	if pr.state != stateSnapshot && pr.next <= c.snapIndex {
		pr.state, pr.snapOff, pr.behind = stateSnapshot, 0, true
	}
	if pr.state == stateSnapshot {
		c.sendSnapChunk(p, pr.snapOff, false)
		return
	}
	prev := pr.next - 1
	hi := prev
	for size := 0; hi < c.last && hi-prev < maxBatch && size < snapshot.BatchBytes; {
		hi++
		size += len(c.log.Get(hi).Val)
	}
	var batch []Entry
	if hi >= pr.next {
		// Exact-size header copy: in-flight messages must not alias the
		// log's pages (a later truncate-and-append would rewrite them),
		// but the Values inside are immutable and shared.
		batch = make([]Entry, hi-prev)
		for i := range batch {
			batch[i] = *c.log.Get(pr.next + types.Seq(i))
		}
	}
	c.send(Msg{
		Kind: Append, To: p,
		PrevIndex: prev, PrevTerm: c.At(prev).Term,
		Entries: batch, Commit: c.commit, Read: c.reads.Round(),
	})
	pr.told, pr.behind = c.commit+1, hi < c.last
	if pr.state == stateReplicate {
		pr.next = hi + 1
	}
}

func (c *Core[M]) onAppend(m Msg) {
	if m.Term < c.el.Term() {
		c.send(Msg{Kind: AppendResp, To: m.From, Success: false, Match: 0, Read: m.Read})
		return
	}
	c.el.Heard(m.From)
	entries, prevIndex, prevTerm := m.Entries, m.PrevIndex, m.PrevTerm
	if snap := c.snapIndex; prevIndex < snap {
		// The message starts below our snapshot. Everything through it is
		// committed state we already hold, so trim the prefix and
		// re-anchor the consistency check at the snapshot boundary.
		drop := snap - prevIndex
		if types.Seq(len(entries)) <= drop {
			c.send(Msg{Kind: AppendResp, To: m.From, Success: true, Match: snap, Read: m.Read})
			return
		}
		entries = entries[drop:]
		prevIndex, prevTerm = snap, c.snapTerm
	}
	// Log Matching check. The reject echoes the PrevIndex it refused, so
	// the leader can tell it from rejects of frames it has since resent,
	// and hints where to resume: our last index if the gap is past our
	// log, else our commit index (which surely matches the leader's log).
	if !c.matches(prevIndex, prevTerm) {
		hint := c.commit
		if prevIndex > c.last {
			hint = c.last
		}
		c.send(Msg{Kind: AppendResp, To: m.From, PrevIndex: m.PrevIndex, Match: hint, Read: m.Read})
		return
	}
	match := c.accept(prevIndex, entries)
	if m.Commit > c.commit {
		c.advanceCommit(min(m.Commit, match))
	}
	if len(m.Entries) == 0 {
		// A matched empty append (the heartbeat) tells the leader nothing
		// it does not know: no answer.
		return
	}
	c.send(Msg{Kind: AppendResp, To: m.From, Success: true, Match: match, Read: m.Read})
}

// matches reports whether the log holds the leader's entry at prev, and
// with it the leader's log through prev: an entry's term vouches for
// everything below it. So does an acceptor's decided prefix, whose
// entries another replica may hold under other ballots.
func (c *Core[M]) matches(prev types.Seq, prevTerm uint64) bool {
	return c.keep && prev <= c.commit || prev <= c.last && c.At(prev).Term == prevTerm
}

// accept writes entries after prev, which matches, and returns the index
// the log now matches the sender's through; a conflicting suffix goes.
// An acceptor keeps a decided entry whatever ballot the sender holds it
// under.
func (c *Core[M]) accept(prev types.Seq, entries []Entry) types.Seq {
	for i, e := range entries {
		idx := prev + types.Seq(i) + 1
		if idx <= c.last {
			if c.At(idx).Term == e.Term || c.keep && idx <= c.commit {
				continue
			}
			if idx <= c.commit {
				panic(fmt.Sprintf("replog: node %v truncating committed index %d", c.id, idx))
			}
			c.truncateFrom(idx)
		}
		c.appendEntry(e) // header copied by value, Value shared
	}
	return prev + types.Seq(len(entries))
}

// Learn takes entries after prev, through commit decided, from a peer
// that has decided them: a Paxos candidate catching up to its quorum.
func (c *Core[M]) Learn(prev types.Seq, entries []Entry, commit types.Seq) {
	c.advanceCommit(min(commit, c.accept(prev, entries)))
}

func (c *Core[M]) onAppendResp(m Msg) {
	if !c.Leading() || m.Term != c.el.Term() {
		return
	}
	c.reads.Answer(m.From, m.Read)
	pr := c.prs[m.From]
	if pr == nil {
		return // not, or no longer, a peer
	}
	if m.Success {
		c.onMatched(m.From, pr, m.Match)
		return
	}
	// A reject names the PrevIndex it refused. Only the first reject of
	// a frame still believed delivered counts; rejects of the frames
	// that were in flight behind it, and duplicates, change nothing.
	switch pr.state {
	case stateProbe:
		if m.PrevIndex != pr.next-1 {
			return
		}
	case stateReplicate:
		if m.PrevIndex <= pr.match && !(c.keep && m.Match < pr.match) {
			return
		}
	case stateSnapshot:
		return
	}
	if c.keep {
		// A restored acceptor's log is its snapshot: it no longer holds
		// what the leader had matched, and is fed again from where it is.
		pr.match = min(pr.match, m.Match)
	}
	pr.next = m.PrevIndex
	if hint := m.Match + 1; hint < pr.next {
		pr.next = hint
	}
	if pr.next <= pr.match {
		pr.next = pr.match + 1
	}
	pr.state = stateProbe
	c.sendNext(m.From, pr)
}

// onMatched records that p's log is known to match through idx, which
// ends a probe whose first index it reaches, and carries on from there
// if the last append stopped short of the log's end (catch-up).
func (c *Core[M]) onMatched(p types.NodeID, pr *progress, idx types.Seq) {
	if idx > pr.match {
		pr.match = idx
	}
	if pr.next <= pr.match {
		pr.next = pr.match + 1
	}
	if pr.state == stateProbe && pr.next == pr.match+1 {
		pr.state = stateReplicate
	}
	c.maybeCommit()
	if pr.behind {
		c.replicateTo(p)
	}
}

// maybeCommit advances the commit index to the highest index of the
// current term that a quorum of its member set holds, one member set at
// a time. The match-index scratch lives on the node and the sort is in
// place, so the commit check allocates nothing.
func (c *Core[M]) maybeCommit() {
	for c.Leading() {
		ms, q2, through := c.el.Quorum(c.commit + 1)
		if cap(c.matchScratch) < len(ms) {
			c.matchScratch = make([]types.Seq, 0, len(ms))
		}
		matches := c.matchScratch[:0]
		for _, p := range ms {
			if p == c.id {
				matches = append(matches, c.last)
			} else {
				matches = append(matches, c.prs[p].match)
			}
		}
		// Insertion sort, descending: clusters are small and sort.Slice's
		// closure would allocate on every commit check.
		for i := 1; i < len(matches); i++ {
			for j := i; j > 0 && matches[j] > matches[j-1]; j-- {
				matches[j], matches[j-1] = matches[j-1], matches[j]
			}
		}
		candidate := min(matches[q2-1], through)
		if candidate <= c.commit || candidate <= c.snapIndex || c.At(candidate).Term != c.el.Term() {
			return
		}
		c.advanceCommit(candidate)
		if candidate < through {
			return
		}
	}
}

func (c *Core[M]) advanceCommit(to types.Seq) {
	if to > c.last {
		to = c.last
	}
	if to <= c.commit {
		return
	}
	c.commit = to
	for c.applied < c.commit {
		c.applied++
		v := c.log.Get(c.applied).Val
		c.Decide(c.applied, v)
		c.el.Committed(c.applied, v)
	}
}
