package hotstuff

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/kvstore"
)

// BenchmarkBatchSize is the batching ablation: larger blocks amortize
// the per-view certificate cost over more client operations.
func BenchmarkBatchSize(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var msgsPerOp float64
			for i := 0; i < b.N; i++ {
				c := NewCluster(1, nil, Config{ViewTimeout: 15, MaxBatch: batch}, kvSM)
				c.Run(40)
				c.ResetStats()
				const ops = 32
				for s := 1; s <= ops; s++ {
					c.Submit(req(1, uint64(s), kvstore.Incr("n", 1)))
				}
				done := func() bool {
					c.Pump()
					n := 0
					for range c.Execs()[0].Applied() {
						n++
					}
					return n >= ops
				}
				if !c.RunUntil(done, 5000) {
					b.Fatal("batch never drained")
				}
				msgsPerOp = float64(c.Stats().Sent) / ops
			}
			b.ReportMetric(msgsPerOp, "msgs/op")
		})
	}
}

// BenchmarkViewTimeout is the pacemaker ablation: the chain's throughput
// is governed by QC formation, not the timeout safety net — commits per
// 100 ticks stay flat across timeouts.
func BenchmarkViewTimeout(b *testing.B) {
	for _, vt := range []int{10, 40} {
		b.Run(fmt.Sprintf("timeout=%d", vt), func(b *testing.B) {
			var blocks int
			for i := 0; i < b.N; i++ {
				c := NewCluster(1, nil, Config{ViewTimeout: vt}, nil)
				c.Run(2 * vt)
				before := c.Nodes[0].CommittedBlocks()
				c.Run(100)
				blocks = c.Nodes[0].CommittedBlocks() - before
			}
			b.ReportMetric(float64(blocks), "blocks/100ticks")
		})
	}
}
