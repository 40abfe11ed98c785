// Package readindex is the leader's half of a read that leaves the log,
// Raft's ReadIndex (Ongaro's dissertation, §6.4), for raft and
// Multi-Paxos alike: a round per read, probes to as few followers as the
// quorum needs, and the read confirmed once answers to a round issued
// after it reach that quorum. The leader's replication messages carry
// the newest round too, so under write load their acks answer as well.
// Each backend decides which answers count and which quorums a read must
// reach.
package readindex

import (
	"slices"

	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

type read struct {
	id, round uint64    // round: the first one issued after the read
	index     types.Seq // the commit frontier when that round was issued
	reasked   bool
}

// Tracker is one node's reads; the zero value is ready. Rounds number up
// for the node's whole life: a late answer to an old term's round never
// stands for a newer one.
type Tracker struct {
	round    uint64                  // newest round issued
	ticked   uint64                  // newest round issued at the last Aged call
	answered map[types.NodeID]uint64 // newest round each follower answered
	pending  []read                  // rounds ascend
	done     []types.ReadState
	ranked   []types.NodeID

	probes, reasks int
}

// Issue opens a round for read id at commit frontier index, or reports
// the read dropped when the node does not lead.
func (t *Tracker) Issue(id uint64, index types.Seq, leading bool) uint64 {
	if !leading {
		t.done = append(t.done, types.ReadState{ID: id, Dropped: true})
		return 0
	}
	t.round++
	t.pending = append(t.pending, read{id: id, round: t.round, index: index})
	return t.round
}

// Answer records that follower answered round r on the leader's term:
// a probe's answer, or the ack of a replication message stamped r.
func (t *Tracker) Answer(from types.NodeID, r uint64) {
	if r == 0 {
		return
	}
	if t.answered == nil {
		t.answered = make(map[types.NodeID]uint64)
	}
	t.answered[from] = max(t.answered[from], r)
}

// Pick is whom a round goes to: the fewest of members that make a quorum
// of need with the leader, newest answerers first (quorum.Pick); valid
// until the next call.
func (t *Tracker) Pick(members []types.NodeID, self types.NodeID, need int) []types.NodeID {
	t.ranked = quorum.Pick(t.ranked, members, self, need, t.newest)
	t.probes += len(t.ranked)
	return t.ranked
}

// newest is the newest round p answered.
func (t *Tracker) newest(p types.NodeID) uint64 { return t.answered[p] }

// Reached is the newest round a quorum of need among members answered,
// the leader answering every round it issues: the round the last of
// Pick's members answered, 0 when members are too few.
func (t *Tracker) Reached(members []types.NodeID, self types.NodeID, need int) uint64 {
	t.ranked = quorum.Pick(t.ranked, members, self, need, t.newest)
	if slices.Contains(members, self) {
		need--
	}
	switch {
	case need > len(t.ranked):
		return 0
	case need > 0:
		return t.answered[t.ranked[need-1]]
	}
	return t.round
}

// Aged, called once a tick, reports whether a read has waited through a
// whole tick and was never re-asked: one issued before the previous call
// still waits.
func (t *Tracker) Aged() bool {
	aged := false
	for _, r := range t.pending {
		if r.round > t.ticked {
			break
		}
		aged = aged || !r.reasked
	}
	t.ticked = t.round
	return aged
}

// Reask is Pick's fallback, for a read Aged found waiting and, while
// reads wait, the heartbeat: the newest round and the members but self
// yet to answer it. A chosen follower gone silent costs one tick and is
// not chosen again.
func (t *Tracker) Reask(members []types.NodeID, self types.NodeID) (uint64, []types.NodeID) {
	t.ranked = t.ranked[:0]
	if len(t.pending) == 0 {
		return 0, nil
	}
	for _, p := range members {
		if p != self && t.answered[p] < t.round {
			t.ranked = append(t.ranked, p)
		}
	}
	for i := range t.pending {
		t.pending[i].reasked = t.pending[i].reasked || len(t.ranked) > 0
	}
	t.probes += len(t.ranked)
	return t.round, t.ranked
}

// Confirm confirms every waiting read of a round at or below through, at
// its index raised to floor, the leader's first commit in its term.
func (t *Tracker) Confirm(through uint64, floor types.Seq) {
	n := 0
	for ; n < len(t.pending) && t.pending[n].round <= through; n++ {
		r := t.pending[n]
		t.done = append(t.done, types.ReadState{ID: r.id, Index: max(r.index, floor)})
		if r.reasked {
			t.reasks++
		}
	}
	t.pending = append(t.pending[:0], t.pending[n:]...)
}

// Reset drops every waiting read and forgets every answer: the node
// stopped leading.
func (t *Tracker) Reset() {
	for _, r := range t.pending {
		t.done = append(t.done, types.ReadState{ID: r.id, Dropped: true})
	}
	t.pending = t.pending[:0]
	clear(t.answered)
}

// Waiting reports whether any read waits for confirmation.
func (t *Tracker) Waiting() bool { return len(t.pending) > 0 }

// Round is the newest round issued: what a replication message the
// leader sends now stamps, so that its ack answers every round to date.
func (t *Tracker) Round() uint64 { return t.round }

// Take returns the reads confirmed or dropped since the last Take.
func (t *Tracker) Take() []types.ReadState {
	out := t.done
	t.done = t.done[:0]
	return out
}

// Stats returns the probes sent and the reads confirmed only after a
// tick re-asked: the thrifty pick's misses.
func (t *Tracker) Stats() (probes, reasks int) { return t.probes, t.reasks }
