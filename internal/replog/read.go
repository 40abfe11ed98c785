package replog

import "fortyconsensus/internal/types"

// Reads without a log entry (package readindex): a read confirms once Q2
// of every member set governing the undecided indices, the leader
// included, answered a round issued after it — a probe, or an append
// stamped with it — on the leader's term, and not before the leader's
// first entry of its term commits: only then does the commit index cover
// what a previous leader acknowledged. A follower on a higher term
// answers with it, and the leader steps down, dropping its reads.

// ReadIndex asks this node, as leader, to confirm read id.
func (c *Core[M]) ReadIndex(id uint64) {
	if round := c.reads.Issue(id, c.commit, c.Leading()); round > 0 {
		c.eachQuorum(func(members []types.NodeID, q2 int) {
			for _, p := range c.reads.Pick(members, c.id, q2) {
				c.send(Msg{Kind: Read, To: p, Read: round})
			}
		})
	}
}

// TakeReads returns the reads confirmed or dropped since the last call,
// valid until the node's next step.
func (c *Core[M]) TakeReads() []types.ReadState {
	if c.Leading() && c.reads.Waiting() && c.commit >= c.readFloor {
		through := ^uint64(0)
		c.eachQuorum(func(members []types.NodeID, q2 int) {
			through = min(through, c.reads.Reached(members, c.id, q2))
		})
		c.reads.Confirm(through, c.readFloor)
	}
	return c.reads.Take()
}

// ReadStats returns the probes sent and the reads a tick re-asked.
func (c *Core[M]) ReadStats() (probes, reasked int) { return c.reads.Stats() }

// onRead answers a probe: one of this term is as good as a heartbeat.
func (c *Core[M]) onRead(m Msg) {
	if m.Term == c.el.Term() {
		c.el.Heard(m.From)
	}
	c.send(Msg{Kind: ReadResp, To: m.From, Read: m.Read})
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
