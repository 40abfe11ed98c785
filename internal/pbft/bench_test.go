package pbft

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// BenchmarkCommitThroughput measures simulated commits per benchmark
// iteration at f=1 — the harness cost of one committed PBFT operation.
func BenchmarkCommitThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewCluster(1, nil, Config{}, nil)
		c.Submit(0, req(1, 1, kvstore.Command{Op: kvstore.OpNoop}))
		if !c.RunUntil(func() bool { return c.Nodes[0].ExecutedFrontier() >= 1 }, 300) {
			b.Fatal("no commit")
		}
	}
}

// BenchmarkCheckpointInterval is the garbage-collection ablation: small
// checkpoint intervals bound slot-table memory at the cost of extra
// checkpoint traffic. The benchmark reports both for two settings.
func BenchmarkCheckpointInterval(b *testing.B) {
	for _, every := range []int{4, 64} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			var msgs, slots int
			for i := 0; i < b.N; i++ {
				c := NewCluster(1, nil, Config{CheckpointEvery: every}, nil)
				for s := 1; s <= 64; s++ {
					c.Submit(0, req(1, uint64(s), kvstore.Incr("n", 1)))
				}
				c.RunUntil(func() bool { return c.Nodes[0].ExecutedFrontier() >= 64 }, 5000)
				c.Run(30)
				msgs = c.Stats().ByKind["checkpoint"]
				slots = len(c.Nodes[0].slots)
			}
			b.ReportMetric(float64(msgs), "checkpoint-msgs")
			b.ReportMetric(float64(slots), "live-slots")
		})
	}
}

// BenchmarkScaleN measures per-operation messages as the cluster grows —
// the O(n²) curve as a benchmark series.
func BenchmarkScaleN(b *testing.B) {
	for _, f := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("f=%d/n=%d", f, 3*f+1), func(b *testing.B) {
			var sent int
			for i := 0; i < b.N; i++ {
				c := NewCluster(f, nil, Config{}, nil)
				c.Submit(0, req(1, 1, kvstore.Command{Op: kvstore.OpNoop}))
				c.RunUntil(func() bool { return c.Nodes[0].ExecutedFrontier() >= 1 }, 500)
				sent = c.Stats().Sent
			}
			b.ReportMetric(float64(sent), "msgs/op")
		})
	}
}

var _ = types.NodeID(0)
