// Bank: Spanner-style distributed transactions — 2PC across
// Raft-replicated shards (the paper's Google Spanner slide: "2PL+2PC"
// over per-shard Paxos replication).
//
// Two shards each replicate account balances over a 3-node Raft group,
// hosted by shard.Service, whose partition map places every account.
// A transfer reads the debit account's balance and, if it covers the
// amount, runs as one transaction: two-phase commit with the decision
// latched at the home shard when the two accounts live on different
// shards, one replicated entry when they share one. The example audits
// that money is conserved, that no account goes negative, and that
// every replica of each shard holds the same store.
//
//	go run ./examples/bank
package main

import (
	"bytes"
	"fmt"
	"log"
	"strconv"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/workload"
)

const (
	shardCount = 2
	accounts   = 8
	initialBal = 1000
)

// transact runs cmds as one transaction and returns its outcome.
func transact(svc *shard.Service, cmds ...kvstore.Command) commit.Outcome {
	tx := svc.Submit(cmds)
	for ticks := 0; ticks < 2000; ticks++ {
		if done, outcome := svc.TxDone(tx); done {
			return outcome
		}
		svc.Step()
	}
	log.Fatal("bank: transaction stalled")
	return commit.Pending
}

// balance reads an account from the shard that holds it.
func balance(svc *shard.Service, account int) int64 {
	key := workload.AccountKey(account)
	seq := svc.SubmitKVAt(svc.Map().Shard(key), kvstore.Get(key))
	for ticks := 0; ticks < 2000; ticks++ {
		svc.Step()
		for _, r := range svc.TakeKVReplies() {
			if r.SeqNo == seq {
				n, err := strconv.ParseInt(string(r.Result), 10, 64)
				if err != nil {
					log.Fatalf("account %d holds %q", account, r.Result)
				}
				return n
			}
		}
	}
	log.Fatal("bank: read stalled")
	return 0
}

func main() {
	svc := shard.NewService(shard.Config{Shards: shardCount, Seed: 5})
	svc.Run(60) // leader elections

	// Fund the accounts, all in one transaction.
	var fund []kvstore.Command
	for a := 0; a < accounts; a++ {
		fund = append(fund, kvstore.Put(workload.AccountKey(a), []byte(strconv.Itoa(initialBal))))
	}
	if transact(svc, fund...) != commit.Committed {
		log.Fatal("funding aborted")
	}
	fmt.Printf("funded %d accounts with %d each across %d Raft shards\n\n", accounts, initialBal, shardCount)

	gen := workload.NewBank(accounts, simnet.NewRNG(99))
	committed, aborted := 0, 0
	for txn := 0; txn < 12; txn++ {
		tr := gen.Next()
		from, to := workload.AccountKey(tr.From), workload.AccountKey(tr.To)
		if balance(svc, tr.From) < tr.Amount {
			aborted++
			fmt.Printf("txn %2d: transfer %3d: acct %d → acct %d REFUSED (insufficient funds)\n",
				txn, tr.Amount, tr.From, tr.To)
			continue
		}
		kind := "local      "
		if svc.Map().Shard(from) != svc.Map().Shard(to) {
			kind = "cross-shard"
		}
		if transact(svc, kvstore.Incr(from, -tr.Amount), kvstore.Incr(to, tr.Amount)) != commit.Committed {
			aborted++
			fmt.Printf("txn %2d: %s transfer %3d: acct %d → acct %d ABORTED\n", txn, kind, tr.Amount, tr.From, tr.To)
			continue
		}
		committed++
		fmt.Printf("txn %2d: %s transfer %3d: acct %d → acct %d COMMITTED\n", txn, kind, tr.Amount, tr.From, tr.To)
	}

	// Audit: conservation of money, no negative balance, and every
	// replica of a shard holding the same store once the followers have
	// heard the last commit.
	total := int64(0)
	for a := 0; a < accounts; a++ {
		b := balance(svc, a)
		if b < 0 {
			log.Fatalf("account %d went negative: %d", a, b)
		}
		total += b
	}
	fmt.Printf("\ncommitted=%d refused or aborted=%d\n", committed, aborted)
	fmt.Printf("total money = %d (expected %d) %s\n", total, accounts*initialBal,
		check(total == accounts*initialBal))
	if total != accounts*initialBal {
		log.Fatal("money was not conserved")
	}
	svc.Run(100)
	for i, g := range svc.Groups() {
		stores := g.Stores()
		// Skip the 8-byte applied counter: leader no-ops move it
		// differently per replica; the KV contents must agree.
		want := stores[0].KV().Snapshot()[8:]
		for r, st := range stores[1:] {
			if !bytes.Equal(st.KV().Snapshot()[8:], want) {
				log.Fatalf("shard %d: replica %d's store differs from replica 0's", i, r+1)
			}
		}
	}
	fmt.Println("every shard's replicas hold identical stores ✓")
}

func check(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}
