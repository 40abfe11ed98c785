package raft

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// BenchmarkReplicate measures one committed entry through a 3-node
// cluster per iteration.
func BenchmarkReplicate(b *testing.B) {
	c := NewCluster(3, nil, Config{Seed: 1}, nil)
	lead := c.WaitLeader(1000)
	if lead == nil {
		b.Fatal("no leader")
	}
	c.Run(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := lead.CommitFrontier() + 1
		lead.Submit(req(1, uint64(i+1), kvstore.Command{Op: kvstore.OpNoop}))
		if !c.RunUntil(func() bool { return lead.CommitFrontier() >= target }, 200) {
			b.Fatal("commit stalled")
		}
	}
}

// BenchmarkLeaderAppend measures the leader append → replicate → commit
// round for one value on a 3-node cluster, with allocations reported:
// one Submit plus the ticks it takes for the commit frontier to advance
// and decisions to drain on every replica. allocs/op is the
// protocol-hot-path allocation budget the Value ownership discipline
// (types.Value doc) targets.
func BenchmarkLeaderAppend(b *testing.B) {
	c := NewCluster(3, nil, Config{Seed: 1}, nil)
	lead := c.WaitLeader(1000)
	if lead == nil {
		b.Fatal("no leader")
	}
	c.Run(20)
	val := types.Value("bench-value-0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := lead.CommitFrontier() + 1
		lead.Submit(val)
		if !c.RunUntil(func() bool { return lead.CommitFrontier() >= target }, 200) {
			b.Fatal("commit stalled")
		}
		for _, n := range c.Nodes {
			n.TakeDecisions()
		}
	}
}

// BenchmarkLeaderAppendBatch measures a 64-entry burst submitted in one
// tick — the AppendEntries batching path (up to MaxBatch entries per
// message) that the exact-size entry-slice discipline targets.
func BenchmarkLeaderAppendBatch(b *testing.B) {
	c := NewCluster(3, nil, Config{Seed: 1}, nil)
	lead := c.WaitLeader(1000)
	if lead == nil {
		b.Fatal("no leader")
	}
	c.Run(20)
	vals := make([]types.Value, 64)
	for i := range vals {
		vals[i] = types.Value(fmt.Sprintf("batch-value-%02d-0123456789", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := lead.CommitFrontier() + types.Seq(len(vals))
		for _, v := range vals {
			lead.Submit(v)
		}
		if !c.RunUntil(func() bool { return lead.CommitFrontier() >= target }, 2000) {
			b.Fatal("commit stalled")
		}
		for _, n := range c.Nodes {
			n.TakeDecisions()
		}
	}
}

// BenchmarkLeaderPipelined is servebench's raft.d32 round without the
// codec: a burst of 32 submits at the leader, then deliveries until the
// group is quiet, driven by hand with both followers acknowledging. One
// op is one committed entry; entries-sent/op is how many times the
// leader put an entry into an AppendEntries per commit (2 = once per
// follower, the floor).
func BenchmarkLeaderPipelined(b *testing.B) {
	const depth = 32
	g := newTrio(b)
	val := types.Value("bench-value-0123456789abcdef")
	entries, ops := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for ops < b.N {
		for i := 0; i < depth; i++ {
			g.lead.Submit(val)
		}
		for quiet := false; !quiet; {
			quiet = true
			for _, n := range g.nodes {
				for _, m := range n.Drain() {
					entries += len(m.Entries)
					g.nodes[m.To].Step(m)
					quiet = false
				}
			}
		}
		for _, n := range g.nodes {
			n.TakeDecisions()
		}
		ops += depth
	}
	b.StopTimer()
	g.converged()
	b.ReportMetric(float64(entries)/float64(ops), "entries-sent/op")
}

// BenchmarkElectionTimeout is the failover ablation: shorter election
// timeouts recover leadership faster but risk spurious elections under
// jittery networks. Reported as ticks-to-new-leader after a crash.
func BenchmarkElectionTimeout(b *testing.B) {
	for _, timeout := range []int{15, 30, 60} {
		b.Run(fmt.Sprintf("timeout=%d", timeout), func(b *testing.B) {
			var failover int
			for i := 0; i < b.N; i++ {
				c := NewCluster(3, nil, Config{Seed: uint64(i), ElectionTimeoutTicks: timeout}, nil)
				lead := c.WaitLeader(2000)
				if lead == nil {
					b.Fatal("no leader")
				}
				c.Run(10)
				start := c.Now()
				c.Crash(lead.id)
				ok := c.RunUntil(func() bool {
					for _, n := range c.Nodes {
						if n.IsLeader() && !c.Crashed(n.id) {
							return true
						}
					}
					return false
				}, 5000)
				if !ok {
					b.Fatal("no failover")
				}
				failover = c.Now() - start
			}
			b.ReportMetric(float64(failover), "failover-ticks")
		})
	}
}

// BenchmarkPersistence measures the cost of journaling one committed
// entry through the WAL (NoSync isolates protocol + encoding cost from
// fsync latency).
func BenchmarkPersistence(b *testing.B) {
	dir := b.TempDir()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	p := NewPersister(l)
	c := NewCluster(3, nil, Config{Seed: 2}, nil)
	lead := c.WaitLeader(1000)
	if lead == nil {
		b.Fatal("no leader")
	}
	c.Run(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := lead.CommitFrontier() + 1
		lead.Submit(types.Value{byte(i)})
		c.RunUntil(func() bool { return lead.CommitFrontier() >= target }, 200)
		if err := p.Sync(lead); err != nil {
			b.Fatal(err)
		}
	}
}
