// Bank: Spanner-style distributed transactions — 2PC across
// Raft-replicated shards (the paper's Google Spanner slide: "2PL+2PC"
// over per-shard Paxos replication).
//
// Two shards each replicate account balances over a 3-node Raft group.
// Transfers between accounts on different shards run two-phase commit:
// phase 1 replicates a prepare record (with a balance check) in every
// touched shard's log; phase 2 replicates the commit (or abort). The
// example audits that money is conserved and no account goes negative.
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"log"
	"strconv"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/workload"
)

const (
	shardCount = 2
	accounts   = 8
	initialBal = 1000
)

// shard is one Raft-replicated partition of the bank.
type shard struct {
	cluster *raft.Cluster
	leader  *raft.Node
	seq     uint64
}

// apply replicates one command through the shard's Raft log and returns
// the leader's reply.
func (s *shard) apply(all []*shard, cmd kvstore.Command) types.Value {
	s.seq++
	seq := s.seq
	s.leader.Submit(smr.EncodeRequest(types.Request{Client: 7, SeqNo: seq, Op: cmd.Encode()}))
	for ticks := 0; ticks < 2000; ticks++ {
		var out types.Value
		for _, sh := range all {
			for _, r := range sh.cluster.RunPumped(1) {
				if sh == s && r.SeqNo == seq && r.Node == s.leader.Leader() {
					out = r.Result
				}
			}
		}
		if out != nil {
			return out
		}
	}
	log.Fatal("bank: replication stalled")
	return nil
}

func balance(s *shard, all []*shard, account int) int64 {
	v := s.apply(all, kvstore.Get(workload.AccountKey(account)))
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func main() {
	// Build the shards.
	shards := make([]*shard, shardCount)
	for i := range shards {
		c := raft.NewCluster(3, nil, raft.Config{Seed: uint64(i)*311 + 5},
			func() smr.StateMachine { return kvstore.New() })
		lead := c.WaitLeader(1000)
		if lead == nil {
			log.Fatal("no shard leader")
		}
		shards[i] = &shard{cluster: c, leader: lead}
	}
	// Fund the accounts (account a lives on shard a % shardCount).
	for a := 0; a < accounts; a++ {
		s := shards[a%shardCount]
		s.apply(shards, kvstore.Put(workload.AccountKey(a), []byte(strconv.Itoa(initialBal))))
	}
	fmt.Printf("funded %d accounts with %d each across %d Raft shards\n\n", accounts, initialBal, shardCount)

	// Run transfers: 2PC with per-shard Raft-replicated records.
	gen := workload.NewBank(accounts, shardCount, simnet.NewRNG(99))
	committed, aborted := 0, 0
	for txn := 0; txn < 12; txn++ {
		tr := gen.Next()
		from, to := shards[tr.FromShard], shards[tr.ToShard]

		// Phase 1 — prepare: check and reserve funds on the debit shard
		// (a CAS-free check-then-reserve, replicated through Raft).
		bal := balance(from, shards, tr.From)
		voteCommit := bal >= tr.Amount
		from.apply(shards, kvstore.Put(fmt.Sprintf("prep-%d", txn), []byte("reserved")))
		to.apply(shards, kvstore.Put(fmt.Sprintf("prep-%d", txn), []byte("reserved")))

		// Phase 2 — decision, replicated on both shards.
		if voteCommit {
			from.apply(shards, kvstore.Incr(workload.AccountKey(tr.From), -tr.Amount))
			to.apply(shards, kvstore.Incr(workload.AccountKey(tr.To), tr.Amount))
			committed++
			kind := "local "
			if tr.CrossShard {
				kind = "cross-shard"
			}
			fmt.Printf("txn %2d: %s transfer %3d: acct %d → acct %d COMMITTED\n",
				txn, kind, tr.Amount, tr.From, tr.To)
		} else {
			from.apply(shards, kvstore.Put(fmt.Sprintf("abort-%d", txn), []byte("1")))
			to.apply(shards, kvstore.Put(fmt.Sprintf("abort-%d", txn), []byte("1")))
			aborted++
			fmt.Printf("txn %2d: transfer %3d: acct %d → acct %d ABORTED (insufficient funds)\n",
				txn, tr.Amount, tr.From, tr.To)
		}
	}

	// Audit: conservation of money and per-replica consistency.
	total := int64(0)
	for a := 0; a < accounts; a++ {
		b := balance(shards[a%shardCount], shards, a)
		if b < 0 {
			log.Fatalf("account %d went negative: %d", a, b)
		}
		total += b
	}
	fmt.Printf("\ncommitted=%d aborted=%d\n", committed, aborted)
	fmt.Printf("total money = %d (expected %d) %s\n", total, accounts*initialBal,
		check(total == accounts*initialBal))
	for i, s := range shards {
		if err := smr.CheckPrefixConsistency(s.cluster.Execs()...); err != nil {
			log.Fatalf("shard %d inconsistent: %v", i, err)
		}
	}
	fmt.Println("every shard's replicas applied identical logs ✓")
}

func check(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}
