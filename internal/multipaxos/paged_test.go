package multipaxos

import (
	"testing"

	"fortyconsensus/internal/types"
)

// acceptAt hands n, a follower of node 0, an Accept under b of v at slot
// s that follows slot s-1 accepted under b, carrying frontier commit, and
// reports whether it voted.
func acceptAt(n *Node, b types.Ballot, s types.Seq, v types.Value, commit types.Seq) (voted bool) {
	tag, _ := packBallot(b)
	prev := tag
	if s == 1 {
		prev = 0
	}
	n.Step(Message{Kind: MsgAccept, From: 0, To: n.id, Ballot: b, Slot: s - 1, Prev: prev, Entries: []Entry{{Term: tag, Val: v}}, Commit: commit})
	for _, m := range n.Drain() {
		voted = voted || (m.Kind == MsgAccepted && m.OK && m.Match == s && m.Ballot == b)
	}
	return voted
}

// An acceptor's log grows only by Accepts that follow it: a slot past its
// end is refused however far, and takes no memory — a slot number is a
// wire integer — while the sender is still followed.
func TestASlotFarPastTheLogIsIgnored(t *testing.T) {
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}})
	accept := func(s types.Seq) bool { return acceptAt(n, types.Ballot{Num: 1}, s, types.Value("v"), 0) }
	if accept(1 << 40) {
		t.Fatal("voted for slot 1<<40")
	}
	if n.LastIndex() != 0 || n.Leader() != 0 {
		t.Fatalf("a far slot grew the log to %d and left leader %v, want nothing held and the sender followed", n.LastIndex(), n.Leader())
	}
	if !accept(1) || !n.At(1).Val.Equal(types.Value("v")) {
		t.Fatal("slot 1 was not accepted after the far one was ignored")
	}
	if accept(3) {
		t.Fatal("voted for slot 3 with slot 2 missing")
	}
	if !accept(2) || !accept(3) {
		t.Fatal("refused the slots that follow the log")
	}
}

func TestNoStepIsProportionalToTheLog(t *testing.T) {
	// One write — accept, accepted, learn — allocates the same at the
	// leader and its acceptors, and at an acceptor alone, whether the log
	// is 1k slots long or 256k.
	g := newTrio(t)
	lead := g.elect(0, nil)
	v := types.Value("a value of a usual size, 40 bytes or so")
	round := func() {
		lead.Submit(v)
		g.pump(nil)
		for _, n := range g.nodes {
			n.TakeDecisions()
		}
	}
	lone := New(1, Config{Peers: []types.NodeID{0, 1, 2}})
	at := types.Seq(0)
	accept := func() {
		at++
		acceptAt(lone, types.Ballot{Num: 1}, at, v, at-1)
		lone.TakeDecisions()
	}
	measure := func(size int) [2]float64 {
		for int(lead.CommitFrontier()) < size {
			round()
			accept()
		}
		return [2]float64{testing.AllocsPerRun(200, round), testing.AllocsPerRun(200, accept)}
	}
	short, long := measure(1<<10), measure(256<<10)
	if short != long || lone.CommitFrontier() < 256<<10 {
		t.Fatalf("allocations per write (group, lone acceptor): %v at 1k slots, %v at 256k", short, long)
	}
}
