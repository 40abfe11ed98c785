package shard

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/kvstore"
)

// benchService builds a 2-shard raft-backed service and lets leaders
// settle so the loops below measure steady-state transaction cost.
func benchService(b *testing.B) *Service {
	b.Helper()
	s := NewService(Config{Shards: 2, Replicas: 3, Seed: 7})
	s.Run(120) // elect leaders everywhere
	return s
}

// runTx submits one transaction and steps the service until it
// resolves, failing the benchmark on a stall or an abort.
func runTx(b *testing.B, s *Service, perShard map[int][]kvstore.Command) {
	b.Helper()
	tx := s.SubmitPerShard(perShard)
	for i := 0; i < 5000; i++ {
		s.Step()
		if done, out := s.TxDone(tx); done {
			if out != commit.Committed {
				b.Fatalf("tx %d aborted", tx)
			}
			return
		}
	}
	b.Fatalf("tx %d stalled", tx)
}

// BenchmarkCrossShardCommit measures the full 2PC commit path — prepare
// on both shards through their replicated logs, then outcome
// propagation once both votes are in — for one two-shard
// transaction per iteration. allocs/op tracks the per-message Value
// cloning the ownership discipline removes.
func BenchmarkCrossShardCommit(b *testing.B) {
	s := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := []byte(fmt.Sprintf("v%d", i))
		runTx(b, s, map[int][]kvstore.Command{
			0: {kvstore.Put(fmt.Sprintf("xa%d", i), v)},
			1: {kvstore.Put(fmt.Sprintf("xb%d", i), v)},
		})
	}
}

// BenchmarkSingleShardCommit measures the TxApply fast path: one
// single-shard transaction per iteration, no prepare round.
func BenchmarkSingleShardCommit(b *testing.B) {
	s := benchService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTx(b, s, map[int][]kvstore.Command{
			0: {kvstore.Put(fmt.Sprintf("sa%d", i), []byte("v"))},
		})
	}
}
