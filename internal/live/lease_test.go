package live

import (
	"testing"
	"time"

	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/types"
)

// leaseNode is a raft node 0 of {0,1,2} hosted on a Node ticking every
// every, led by hand: node 1's vote elects it, node 1's ack commits its
// no-op, and the messages it sends are kept in sent (read them inside a
// turn). It is not started.
func leaseNode(t *testing.T, every time.Duration) (*Node[raft.Message], *raft.Node, *[]raft.Message) {
	t.Helper()
	mod := raft.New(0, raft.Config{Peers: []types.NodeID{0, 1, 2}, Seed: 1})
	sent := new([]raft.Message)
	n := NewNode[raft.Message](mod, 0, raft.Dest, func(m raft.Message) { *sent = append(*sent, m) }, nil, NodeConfig{TickEvery: every})
	for i := 0; i < 10 && len(*sent) == 0; i++ {
		n.CallWait(mod.Tick)
	}
	n.Deliver(raft.Message{Kind: raft.MsgVote, From: 1, To: 0, Term: 1, Granted: true})
	n.Deliver(raft.Message{Kind: raft.MsgAppendResp, From: 1, To: 0, Term: 1, Success: true, MatchIndex: 1})
	if !mod.IsLeader() || mod.CommitFrontier() != 1 {
		t.Fatalf("node 0 leads: %v, commit %d", mod.IsLeader(), mod.CommitFrontier())
	}
	return n, mod, sent
}

// lease issues a round, has node 1 answer it, and reports whether a
// lease read then asked in the same turn is answered at once.
func lease(n *Node[raft.Message], mod *raft.Node, sent *[]raft.Message) bool {
	lent := false
	n.CallWait(func() {
		*sent = (*sent)[:0]
		mod.ReadIndex(1, false)
	})
	n.CallWait(func() {
		for _, m := range *sent {
			if m.Kind == raft.MsgRead {
				mod.Step(raft.Message{Kind: raft.MsgReadResp, From: m.To, To: 0, Term: m.Term, Read: m.Read})
			}
		}
		mod.TakeReads()
		lent = leasedAtOnce(mod, 2)
	})
	return lent
}

// leasedAtOnce asks mod for lease read id and reports whether it was
// answered in the same step.
func leasedAtOnce(mod *raft.Node, id uint64) bool {
	mod.ReadIndex(id, true)
	for _, rs := range mod.TakeReads() {
		if rs.ID == id && !rs.Dropped {
			return true
		}
	}
	return false
}

// The clock rule. A started node whose turn is held for more than an
// election timeout of tick intervals runs the ticks it missed before its
// next event: its lease has lapsed by then, so a lease read in that turn
// takes a round, as its followers may no longer refuse another
// candidate. A node that was never started reads no clock: the same hold
// leaves its lease whole, and the read is answered from it — what a
// started node would do without the catch-up.
func TestHeldNodeCatchesUpBeforeALeaseRead(t *testing.T) {
	const every = 20 * time.Millisecond
	hold := 35 * every // raft's default ElectionTimeoutTicks is 30
	for _, started := range []bool{true, false} {
		n, mod, sent := leaseNode(t, every)
		if started {
			n.Start()
		}
		if !lease(n, mod, sent) {
			t.Fatalf("started %v: a read right after an answered round was not answered on the lease", started)
		}
		n.CallWait(func() { time.Sleep(hold) })
		var lent, confirmed bool
		n.CallWait(func() {
			*sent = (*sent)[:0]
			lent = leasedAtOnce(mod, 3)
		})
		// What the turn sent has gone out: node 1 answers its probes.
		n.CallWait(func() {
			for _, m := range *sent {
				if m.Kind == raft.MsgRead {
					mod.Step(raft.Message{Kind: raft.MsgReadResp, From: m.To, To: 0, Term: m.Term, Read: m.Read})
				}
			}
			for _, rs := range mod.TakeReads() {
				confirmed = confirmed || rs.ID == 3 && !rs.Dropped
			}
		})
		n.Close()
		if started && (lent || !confirmed) {
			t.Fatalf("a started node held for %v: read answered on the lease %v, confirmed by a round %v; want a round", hold, lent, confirmed)
		}
		if !started && !lent {
			t.Fatal("a node that was never started lost its lease to the wall clock")
		}
	}
}
