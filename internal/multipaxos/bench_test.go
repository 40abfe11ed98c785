package multipaxos_test

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/types"
)

// The benchmarks go through the exported surface only, so that this file
// also builds against an older commit (make bench-pair copies it there).

var benchVal = types.Value("bench-value-0123456789abcdef")

// group is a leader and two acceptors stepped by hand: no runner, no
// clock once node 0 leads.
type group [3]*multipaxos.Node

func newGroup(b *testing.B) *group {
	var g group
	for i := range g {
		g[i] = multipaxos.New(types.NodeID(i), multipaxos.Config{Peers: []types.NodeID{0, 1, 2}, Seed: 1})
	}
	for i := 0; i < 200 && !g[0].IsLeader(); i++ {
		g[0].Tick()
		g.settle()
	}
	if !g[0].IsLeader() {
		b.Fatal("node 0 does not lead")
	}
	return &g
}

// settle delivers what the nodes send until they send nothing, and
// takes their decisions as a host would.
func (g *group) settle() {
	for quiet := false; !quiet; {
		quiet = true
		for _, n := range g {
			for _, m := range n.Drain() {
				quiet = false
				g[multipaxos.Dest(m)].Step(m)
			}
			n.TakeDecisions()
		}
	}
}

// write is one value through accept, accepted and learn.
func (g *group) write() {
	g[0].Submit(benchVal)
	g.settle()
}

// BenchmarkSteadyStateWrite is the cost of one write at the leader and
// both acceptors with log slots behind it (and i more by iteration i):
// it should not depend on the log's length.
func BenchmarkSteadyStateWrite(b *testing.B) {
	for _, log := range []int{1 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("log=%dk", log>>10), func(b *testing.B) {
			g := newGroup(b)
			for int(g[0].CommitFrontier()) < log {
				g.write()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.write()
			}
		})
	}
}

// BenchmarkPrepareAck is an acceptor answering a Prepare with a long
// decided log and one undecided slot under it.
func BenchmarkPrepareAck(b *testing.B) {
	const log = 256 << 10
	b.Run(fmt.Sprintf("log=%dk", log>>10), func(b *testing.B) {
		acc := multipaxos.New(1, multipaxos.Config{Peers: []types.NodeID{0, 1, 2}})
		lead := types.Ballot{Num: 1}
		for s := types.Seq(1); s <= log+1; s++ {
			acc.Step(multipaxos.Message{Kind: multipaxos.MsgAccept, From: 0, To: 1, Ballot: lead, Slot: s, Val: benchVal, Commit: s - 1})
			acc.Drain()
			acc.TakeDecisions()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc.Step(multipaxos.Message{Kind: multipaxos.MsgPrepare, From: 0, To: 1, Ballot: lead})
			if out := acc.Drain(); len(out) != 1 || out[0].Kind != multipaxos.MsgAck {
				b.Fatalf("answer to the prepare: %+v", out)
			}
		}
	})
}

// BenchmarkCompactEvery1024 is BenchmarkSteadyStateWrite with every node
// compacting its log each 1024 writes: the amortised cost of dropping
// what a snapshot covers.
func BenchmarkCompactEvery1024(b *testing.B) {
	g := newGroup(b)
	state := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		g.write()
		if i%1024 == 0 {
			for _, n := range g {
				n.Compact(n.CommitFrontier(), state)
			}
		}
	}
}
