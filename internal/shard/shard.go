// Package shard composes the repository's two 40-year-old primitives —
// consensus for intra-shard replication (internal/smr over a pluggable
// protocol backend) and atomic commitment for cross-shard transactions
// (two-phase commit, internal/commit's vocabulary) — into the
// architecture the paper ascribes to every modern large-scale data
// management system: a hash-partitioned replicated key-value service.
//
// Each shard is an SMR group: a consensus cluster (Raft, Multi-Paxos,
// or PBFT) whose replicas apply a shard state machine (Store) wrapping
// the deterministic kvstore. Multi-key transactions spanning shards are
// driven by a coordinator running 2PC over the shard groups, with every
// protocol action — prepare-locks, votes, the commit/abort decision,
// and its application — recorded in the shards' replicated logs:
//
//	TxPrepare  staged writes + locks enter the participant's log;
//	           the replicated state machine computes the vote, so a
//	           leader crash never forgets a vote.
//	TxDecide   the outcome is latched in the transaction's home shard's
//	           log (Gray & Lamport's "the commit decision must itself
//	           be fault-tolerant"); every coordinator — original or
//	           recovery — adopts whatever outcome latched first, so
//	           dueling coordinators cannot split a transaction.
//	TxCommit / TxAbort
//	           participants apply or discard the staged writes; both
//	           transitions latch, so retries and duplicates are no-ops.
//
// The whole service runs deterministically over internal/simnet fabrics
// under the runner timing wheel, satisfies nemesis.Target (global node
// IDs span every replica of every shard plus the coordinators), and
// registers as an internal/explore harness with a cross-shard
// atomic-commitment invariant.
package shard

// PartitionMap routes keys to shards by FNV-1a hash — the static hash
// partitioning of the paper's scale-out systems (partition-level
// consensus groups, as in Spanner directories).
type PartitionMap struct {
	shards int
}

// NewPartitionMap builds a map over n shards (minimum 1).
func NewPartitionMap(n int) PartitionMap {
	if n < 1 {
		n = 1
	}
	return PartitionMap{shards: n}
}

// Shard returns the shard owning key.
func (p PartitionMap) Shard(key string) int {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	return int(h % uint64(p.shards))
}
