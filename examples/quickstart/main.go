// Quickstart: a replicated key-value store on Multi-Paxos.
//
// Five replicas run in a simulated network; a leader is elected, client
// commands replicate through the consensus log, every replica applies
// them in the same order, and the example prints the replies plus a
// cross-replica consistency audit — the paper's state-machine-replication
// picture, runnable.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

func main() {
	// 1. Five replicas (tolerating f=2 crashes), each applying committed
	//    commands to its own kvstore.
	cluster := multipaxos.NewCluster(5, nil, multipaxos.Config{Seed: 42},
		func() smr.StateMachine { return kvstore.New() })

	leader := cluster.WaitLeader(1000)
	if leader == nil {
		log.Fatal("no leader elected")
	}
	fmt.Printf("leader elected: %v\n\n", leader.Leader())

	// 2. A client session issues commands. Request (client, seqno) pairs
	//    make retries idempotent.
	commands := []kvstore.Command{
		kvstore.Put("name", []byte("forty-years-of-consensus")),
		kvstore.Put("venue", []byte("ICDE 2020")),
		kvstore.Incr("reads", 1),
		kvstore.Get("name"),
		kvstore.CAS("venue", []byte("ICDE 2020"), []byte("ICDE '20")),
		kvstore.Get("venue"),
		kvstore.Delete("reads"),
		kvstore.Get("reads"),
	}
	for i, cmd := range commands {
		leader.Submit(smr.EncodeRequest(types.Request{
			Client: 1, SeqNo: uint64(i + 1), Op: cmd.Encode(),
		}))
	}

	// 3. Run the cluster; collect the leader's replies.
	replies := cluster.RunPumped(300)
	fmt.Println("replies (leader replica):")
	for _, r := range replies {
		if r.Node == leader.Leader() {
			fmt.Printf("  #%d -> %q\n", r.SeqNo, r.Result)
		}
	}

	// 4. Audit: every replica applied the identical command sequence.
	if err := smr.CheckPrefixConsistency(cluster.Execs()...); err != nil {
		log.Fatalf("CONSISTENCY VIOLATION: %v", err)
	}
	fmt.Printf("\nall %d replicas applied identical logs (%d slots committed) ✓\n",
		len(cluster.Nodes), leader.CommitFrontier())

	// 5. Crash the leader mid-stream and keep going: consensus survives.
	fmt.Println("\ncrashing the leader...")
	cluster.Crash(leader.Leader())
	var next *multipaxos.Node
	cluster.RunUntil(func() bool {
		for _, n := range cluster.Nodes {
			if n.IsLeader() && !cluster.Crashed(n.Leader()) {
				next = n
				return true
			}
		}
		return false
	}, 5000)
	if next == nil {
		log.Fatal("no failover")
	}
	next.Submit(smr.EncodeRequest(types.Request{
		Client: 1, SeqNo: 9, Op: kvstore.Put("after", []byte("failover")).Encode(),
	}))
	cluster.RunPumped(300)
	if err := smr.CheckPrefixConsistency(cluster.Execs()...); err != nil {
		log.Fatalf("CONSISTENCY VIOLATION after failover: %v", err)
	}
	fmt.Printf("new leader %v committed slot %d; logs still consistent ✓\n",
		next.Leader(), next.CommitFrontier())
}
