package multipaxos

import "fortyconsensus/internal/types"

// Reads without a log entry (package readindex), asked in ballots: a
// read confirms once Q2 of the acceptors, the leader included, answered
// a round issued after it (a probe, or an Accept stamped with it) still
// holding its ballot — a rival's Q1 meets
// every Q2 in an acceptor that would have sent a Nack — and Q2 of every
// epoch scheduled past the frontier too. No read confirms below the
// slots this leader recovered: one may hold an acknowledged write.

// ReadIndex asks this node, as leader, to confirm read id.
func (n *Node) ReadIndex(id uint64) {
	if round := n.reads.Issue(id, n.commitSeq, n.role == leader); round > 0 {
		n.eachReadQuorum(func(members []types.NodeID, q2 int) {
			for _, p := range n.reads.Pick(members, n.id, q2) {
				n.send(Message{Kind: MsgRead, To: p, Ballot: n.curBallot, Read: round})
			}
		})
	}
}

// TakeReads returns the reads confirmed or dropped since the last call,
// valid until the node's next step.
func (n *Node) TakeReads() []types.ReadState {
	if n.role == leader && n.reads.Waiting() && n.commitSeq >= n.readFloor {
		through := ^uint64(0)
		n.eachReadQuorum(func(members []types.NodeID, q2 int) {
			through = min(through, n.reads.Reached(members, n.id, q2))
		})
		n.reads.Confirm(through, n.readFloor)
	}
	return n.reads.Take()
}

// ReadStats returns the probes sent and the reads a tick re-asked.
func (n *Node) ReadStats() (probes, reasked int) { return n.reads.Stats() }

// eachReadQuorum calls f with the members governing the first undecided
// slot and those of every epoch scheduled past it, and Q2 of each.
func (n *Node) eachReadQuorum(f func(members []types.NodeID, q2 int)) {
	next := n.commitSeq + 1
	for i, e := range n.configs {
		if e.from > next || i == len(n.configs)-1 || n.configs[i+1].from > next {
			_, q2 := n.quorumsFor(max(e.from, next))
			f(e.members, q2)
		}
	}
}

// onRead answers a probe as a heartbeat: adopt the ballot and say so, or
// Nack a lower one, and its sender steps down.
func (n *Node) onRead(m Message) {
	if m.Ballot.Less(n.ballot) {
		n.send(Message{Kind: MsgNack, To: m.From, Ballot: n.ballot})
		return
	}
	if n.ballot.Less(m.Ballot) || n.lead != m.From || n.role != follower {
		n.ballot = m.Ballot
		n.becomeFollowerOf(m.From)
	}
	n.resetElectionTimer()
	n.send(Message{Kind: MsgReadResp, To: m.From, Ballot: m.Ballot, Read: m.Read})
}

// reask, once a tick, re-sends the newest round to whoever has not
// answered it: at the first tick a read waited through whole, and on
// every beat while reads wait.
func (n *Node) reask(beat bool) {
	if !n.reads.Aged() && !(beat && n.reads.Waiting()) {
		return
	}
	n.eachReadQuorum(func(members []types.NodeID, _ int) {
		round, to := n.reads.Reask(members, n.id)
		for _, p := range to {
			n.send(Message{Kind: MsgRead, To: p, Ballot: n.curBallot, Read: round})
		}
	})
}
