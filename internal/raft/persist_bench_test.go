package raft

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// BenchmarkPersistSynced measures one replog.Persister.Sync that journals k new
// entries with fsync on, on a single-member leader: what group commit
// bounds at one fsync per Sync, whatever k. Written against exported
// names only, so that a benchmark pair can lend it to an older commit.
func BenchmarkPersistSynced(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			l, err := wal.Open(b.TempDir(), wal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			p := replog.NewPersister(l)
			n := New(0, Config{Peers: []types.NodeID{0}, Seed: 11})
			for i := 0; i < 100 && !n.IsLeader(); i++ {
				n.Tick()
			}
			if !n.IsLeader() {
				b.Fatal("single-member node failed to elect itself")
			}
			n.Drain()
			if err := p.Sync(n); err != nil {
				b.Fatal(err)
			}
			val := types.Value("sixteen byte val")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					n.Submit(val)
				}
				n.TakeDecisions()
				if err := p.Sync(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
