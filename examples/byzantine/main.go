// Byzantine: the same replicated KV workload on PBFT with an injected
// byzantine replica — and the contrast the paper draws: a crash-fault
// protocol (Multi-Paxos) run under the same equivocating fault loses
// consistency, while PBFT holds.
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"os"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/pbft"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

func kvSM() smr.StateMachine { return kvstore.New() }

func req(seq uint64, cmd kvstore.Command) types.Value {
	return smr.EncodeRequest(types.Request{Client: 1, SeqNo: seq, Op: cmd.Encode()})
}

// Each half reports whether it showed what it claims; the example exits
// non-zero if either did not, so `make examples` notices when a protocol
// change takes the demonstration away.
func main() {
	fmt.Println("== PBFT (3f+1 = 4 replicas, f = 1) with a byzantine replica ==")
	held := pbftDemo()
	fmt.Println()
	fmt.Println("== Multi-Paxos (2f+1 = 3 replicas) under the same equivocation ==")
	diverged := paxosDemo()
	if !held || !diverged {
		os.Exit(1)
	}
}

// pbftDemo runs PBFT with replica 3 corrupting every prepare/commit it
// sends. Safety and liveness both hold: quorums of 2f+1 correct replicas
// mask the traitor.
func pbftDemo() (held bool) {
	c := pbft.NewCluster(1, nil, pbft.Config{}, kvSM)
	evil := chaincrypto.Hash([]byte("evil"))
	c.Intercept(3, func(m pbft.Message) []pbft.Message {
		switch m.Kind {
		case pbft.MsgPrepare, pbft.MsgCommit:
			m.Digest = evil // lie about what was proposed
		}
		return []pbft.Message{m}
	})
	for i := 1; i <= 5; i++ {
		c.Submit(0, req(uint64(i), kvstore.Incr("balance", 100)))
	}
	c.RunPumped(2000)
	if err := smr.CheckPrefixConsistency(c.Execs()[0], c.Execs()[1], c.Execs()[2]); err != nil {
		fmt.Printf("  UNEXPECTED divergence: %v\n", err)
		return false
	}
	frontier := c.Nodes[0].ExecutedFrontier()
	fmt.Printf("  correct replicas executed %d/5 commands in identical order ✓\n", frontier)
	store := kvstore.New()
	for _, d := range c.Execs()[0].Applied() {
		if r, err := smr.DecodeRequest(d.Val); err == nil {
			store.Apply(r.Op)
		}
	}
	v, _ := store.Get("balance")
	fmt.Printf("  balance = %s (byzantine replica could not corrupt or double-apply) ✓\n", v)
	return frontier == 5 && string(v) == "500"
}

// paxosDemo runs Multi-Paxos where the leader *equivocates on what it
// proposes*, which a crash-fault protocol has no defense against: one
// acceptor is asked to accept a different value than the others, votes
// for it, and — a decision being the leader's word that the slot an
// acceptor voted on under its ballot is chosen — learns it. The correct
// replicas apply divergent values: the safety loss the paper's "What if
// nodes behave maliciously?!" slide motivates.
func paxosDemo() (diverged bool) {
	c := multipaxos.NewCluster(3, nil, multipaxos.Config{Seed: 9}, kvSM)
	lead := c.WaitLeader(1000)
	if lead == nil {
		fmt.Println("  no leader")
		return false
	}
	victim := (lead.Leader() + 1) % 3
	// The byzantine leader forges the values its Accepts carry to one
	// acceptor — Multi-Paxos acceptors trust their leader (crash model
	// assumes no lies), and learn what they accepted once its commit
	// frontier, on the next Accept or heartbeat, passes the slot.
	forged := req(99, kvstore.Put("balance", []byte("999999")))
	c.Intercept(lead.Leader(), func(m multipaxos.Message) []multipaxos.Message {
		if m.Kind == multipaxos.MsgAccept && m.To == victim {
			es := make([]multipaxos.Entry, len(m.Entries))
			for i, e := range m.Entries {
				if es[i] = e; e.Val != nil {
					es[i].Val = forged
				}
			}
			m.Entries = es
		}
		return []multipaxos.Message{m}
	})
	lead.Submit(req(1, kvstore.Put("balance", []byte("100"))))

	// Pump decisions; divergence surfaces as an smr panic, which we
	// catch and report as the expected outcome.
	defer func() {
		if r := recover(); r != nil {
			fmt.Printf("  consistency check tripped: %v\n", r)
			fmt.Println("  ⇒ crash-fault consensus is NOT byzantine fault tolerant (as the paper warns)")
			diverged = true
		}
	}()
	c.RunPumped(300)
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		fmt.Printf("  replicas diverged: %v\n", err)
		fmt.Println("  ⇒ crash-fault consensus is NOT byzantine fault tolerant (as the paper warns)")
		return true
	}
	fmt.Println("  UNEXPECTED: the forged accept did not make the replicas diverge")
	return false
}
