package replog

import (
	"testing"

	"fortyconsensus/internal/types"
)

// fixedElector elects nothing: one term, every index decided by a
// majority of the peers. It is the least a core needs to lead.
type fixedElector struct{ peers []types.NodeID }

func (fixedElector) Term() uint64                     { return 1 }
func (fixedElector) Wire(m *Msg) Msg                  { return *m }
func (fixedElector) Heard(types.NodeID)               {}
func (fixedElector) Appended(types.Seq, types.Value)  {}
func (fixedElector) Truncated(types.Seq)              {}
func (fixedElector) Committed(types.Seq, types.Value) {}
func (fixedElector) Adopt([]types.NodeID)             {}

func (e fixedElector) Quorum(types.Seq) ([]types.NodeID, int, types.Seq) {
	return e.peers, len(e.peers)/2 + 1, Forever
}

func (e fixedElector) Compacting(types.Seq) ([]types.NodeID, bool) { return e.peers, true }

// A leader's record of a follower moves only on news: duplicated and
// overtaken acks and rejects of frames since acknowledged leave match,
// next and the state as they were and resend nothing; a reject that is
// news makes the follower a probe from where it refused, however often
// it is repeated, and never from at or below its match; the probe's ack
// makes it a replicating follower again. Raft's
// TestStaleResponsesMoveNothing checks the same through the frames.
func TestLeaderProgressIgnoresStaleResponses(t *testing.T) {
	peers := []types.NodeID{0, 1, 2}
	var c Core[Msg]
	c.Init(0, fixedElector{peers}, DefaultElector(ElectorConfig{}), peers, false)
	c.Lead(nil, map[types.NodeID]types.Seq{1: 0, 2: 0})
	for i := 0; i < 4; i++ {
		c.Propose(types.Value{byte(i)}, false)
	}
	c.Drain() // the frames are lost: this test answers for node 1
	pr := c.prs[1]
	resent := func() int {
		k := 0
		for _, m := range c.Drain() {
			if m.Kind == Append && m.To == 1 && len(m.Entries) > 0 {
				k++
			}
		}
		return k
	}
	ack := func(match types.Seq) Msg {
		return Msg{Kind: AppendResp, From: 1, To: 0, Term: 1, Success: true, Match: match}
	}
	reject := func(prev, hint types.Seq) Msg {
		return Msg{Kind: AppendResp, From: 1, To: 0, Term: 1, PrevIndex: prev, Match: hint}
	}
	for i, m := range []Msg{
		ack(4), ack(2), ack(4), // in order, overtaken, duplicated
		reject(1, 0), reject(3, 2), reject(4, 3), // of frames since acknowledged
	} {
		c.Replicate(m)
		if pr.match != 4 || pr.next != 5 || pr.state != stateReplicate {
			t.Fatalf("response %d moved the progress: %+v", i, *pr)
		}
		if k := resent(); k != 0 {
			t.Fatalf("response %d caused %d resend(s)", i, k)
		}
	}

	c.Propose(types.Value("5"), false)
	c.Propose(types.Value("6"), false)
	c.Drain()
	// Node 1 missed 5: it refuses 6, three times over.
	total := 0
	for i := 0; i < 3; i++ {
		c.Replicate(reject(5, 4))
		if pr.next <= pr.match {
			t.Fatalf("next %d at or below match %d", pr.next, pr.match)
		}
		total += resent()
	}
	if total != 1 {
		t.Fatalf("a repeated reject caused %d resends, want 1", total)
	}
	if pr.state != stateProbe || pr.next != 5 {
		t.Fatalf("after the reject: %+v, want a probe from 5", *pr)
	}
	c.Replicate(ack(6))
	if pr.state != stateReplicate || pr.match != 6 || pr.next != 7 {
		t.Fatalf("after the probe's ack: %+v", *pr)
	}
}
