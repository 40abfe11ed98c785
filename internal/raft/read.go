package raft

import "fortyconsensus/internal/types"

// Reads without a log entry (package readindex): a read confirms once a
// majority of the members, the leader included, answered a round issued
// after it — a probe, or an append stamped with it — on the leader's
// term, and not before the no-op commits: only then does the commit
// index cover what a previous leader acknowledged. A follower on a higher
// term answers with it, and the leader steps down, dropping its reads.

// ReadIndex asks this node, as leader, to confirm read id.
func (n *Node) ReadIndex(id uint64) {
	if round := n.reads.Issue(id, n.commitIndex, n.role == leader); round > 0 {
		for _, p := range n.reads.Pick(n.members, n.id, n.q.Threshold()) {
			n.send(Message{Kind: MsgRead, To: p, Read: round})
		}
	}
}

// TakeReads returns the reads confirmed or dropped since the last call,
// valid until the node's next step.
func (n *Node) TakeReads() []types.ReadState {
	if n.role == leader && n.reads.Waiting() && n.commitIndex >= n.readFloor {
		n.reads.Confirm(n.reads.Reached(n.members, n.id, n.q.Threshold()), n.readFloor)
	}
	return n.reads.Take()
}

// ReadStats returns the probes sent and the reads the heartbeat re-asked.
func (n *Node) ReadStats() (probes, reasked int) { return n.reads.Stats() }

// onRead answers a probe: one of this term is as good as a heartbeat.
func (n *Node) onRead(m Message) {
	if m.Term == n.term {
		n.becomeFollower(m.Term, m.From)
	}
	n.send(Message{Kind: MsgReadResp, To: m.From, Read: m.Read})
}

// reask re-sends the newest round to whoever has not answered it.
func (n *Node) reask() {
	round, to := n.reads.Reask(n.members, n.id)
	for _, p := range to {
		n.send(Message{Kind: MsgRead, To: p, Read: round})
	}
}
