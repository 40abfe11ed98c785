package replog

import "fortyconsensus/internal/types"

// Reads without a log entry (package readindex): a read confirms once Q2
// of every member set governing the undecided indices, the leader
// included, answered a round issued after it — a probe, or an append
// stamped with it — on the leader's term, and not before the leader's
// first entry of its term commits: only then does the commit index cover
// what a previous leader acknowledged. A follower on a higher term
// answers with it, and the leader steps down, dropping its reads.
//
// The lease (readindex.Tracker.Held) skips the round: a leader whose
// first entry of its term has committed, and a quorum of whose every
// member set answered a round it issued fewer than leaseTicks ticks ago,
// answers a read that asks for it at its commit index at once. Each
// answerer heard from the leader after that round left, and its elector
// refuses every other candidate for an election timeout from then.

// leaseTicks is the lease over an election timeout of e ticks: half of
// it, which leaves at least two ticks of margin on each side for the
// rounding of a tick at either end; none when e is too short for that.
func leaseTicks(e int) uint64 {
	if e < 8 {
		return 0
	}
	return uint64(e / 2)
}

// ReadIndex asks this node, as leader, to confirm read id; with lease
// set, a leader that holds the lease confirms it at once.
func (c *Core[M]) ReadIndex(id uint64, lease bool) {
	if lease && c.Leading() && c.commit >= c.readFloor && c.reads.Held(c.reached()) {
		c.reads.Lend(id, c.commit)
		return
	}
	if round := c.reads.Issue(id, c.commit, c.Leading()); round > 0 {
		c.probe(round)
	}
}

// probe sends round to the fewest followers that make each quorum.
func (c *Core[M]) probe(round uint64) {
	c.eachQuorum(func(members []types.NodeID, q2 int) {
		for _, p := range c.reads.Pick(members, c.id, q2) {
			c.send(Msg{Kind: Read, To: p, Read: round})
		}
	})
}

// reached is the newest round a quorum of every member set answered.
func (c *Core[M]) reached() uint64 {
	through := ^uint64(0)
	c.eachQuorum(func(members []types.NodeID, q2 int) {
		through = min(through, c.reads.Reached(members, c.id, q2))
	})
	return through
}

// TakeReads returns the reads confirmed or dropped since the last call,
// valid until the node's next step.
func (c *Core[M]) TakeReads() []types.ReadState {
	if c.Leading() && c.reads.Waiting() && c.commit >= c.readFloor {
		c.reads.Confirm(c.reached(), c.readFloor)
	}
	return c.reads.Take()
}

// Leasing reports whether this node, as leader, issued a round within
// the lease's length: a lease may then hold on its answers, and its host
// must keep its ticks in step with the wall clock (live.Node's clock
// rule).
func (c *Core[M]) Leasing() bool { return c.reads.Leasing() }

// ReadStats returns the probes sent, the reads a tick re-asked and the
// reads the lease answered.
func (c *Core[M]) ReadStats() (probes, reasked, leased int) { return c.reads.Stats() }

// onRead answers a probe: one of this term is as good as a heartbeat.
func (c *Core[M]) onRead(m Msg) {
	if m.Term == c.el.Term() {
		c.el.Heard(m.From)
	}
	c.send(Msg{Kind: ReadResp, To: m.From, Read: m.Read})
}

// renew, on a heartbeat, probes a fresh round if the lease answered a
// read since the last one: the lease outlives the interval while it
// serves.
func (c *Core[M]) renew() {
	if round := c.reads.Renew(); round > 0 {
		c.probe(round)
	}
}

// reask, once a tick, re-sends the newest round to whoever has not
// answered it: at the first tick a read waited through whole, and on
// every beat while reads wait.
func (c *Core[M]) reask(beat bool) {
	if !c.reads.Aged() && !beat {
		return
	}
	c.eachQuorum(func(members []types.NodeID, _ int) {
		round, to := c.reads.Reask(members, c.id)
		for _, p := range to {
			c.send(Msg{Kind: Read, To: p, Read: round})
		}
	})
}
