package minbft

import (
	"testing"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

func kvSM() smr.StateMachine { return kvstore.New() }

func req(client types.ClientID, seq uint64, cmd kvstore.Command) types.Value {
	return smr.EncodeRequest(types.Request{Client: client, SeqNo: seq, Op: cmd.Encode()})
}

func TestTwoPhaseCommit(t *testing.T) {
	c := NewCluster(1, nil, Config{}, kvSM) // 3 replicas — 2f+1, not 3f+1
	c.Submit(0, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1) }, 300) {
		t.Fatal("request never executed")
	}
	st := c.Stats()
	if st.ByKind["prepare"] == 0 || st.ByKind["commit"] == 0 {
		t.Fatalf("phases missing: %v", st.ByKind)
	}
	// Exactly two protocol phases — no pre-prepare/three-phase traffic.
	if st.ByKind["pre-prepare"] != 0 {
		t.Fatal("unexpected third phase")
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaCountIsTwoFPlusOne(t *testing.T) {
	c := NewCluster(2, nil, Config{}, nil)
	if len(c.Nodes) != 5 {
		t.Fatalf("f=2 built %d replicas, want 5", len(c.Nodes))
	}
}

func TestManyRequestsOrdered(t *testing.T) {
	c := NewCluster(1, nil, Config{}, kvSM)
	const total = 50
	for i := 1; i <= total; i++ {
		c.Submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
	}
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(total) }, 3000) {
		t.Fatalf("stalled at %d", c.Nodes[0].ExecutedFrontier())
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestUSIGPreventsEquivocation(t *testing.T) {
	// A byzantine primary tries to send different prepares for the same
	// slot to different backups. Without valid USIG certificates over
	// the altered body, backups reject the forged copy outright.
	c := NewCluster(1, nil, Config{RequestTimeout: 40}, kvSM)
	reqA := req(1, 1, kvstore.Put("k", []byte("A")))
	reqB := req(1, 1, kvstore.Put("k", []byte("B")))
	c.Intercept(0, func(m Message) []Message {
		if m.Kind == MsgPrepare && m.To == 2 {
			alt := m
			alt.Req = reqB
			alt.Digest = chaincrypto.Hash(reqB)
			// The interceptor cannot re-certify: UI still covers the
			// original body and verification fails at replica 2.
			return []Message{alt}
		}
		return []Message{m}
	})
	c.Submit(0, reqA)
	c.RunPumped(1000)
	if err := smr.CheckPrefixConsistency(c.Execs()[1], c.Execs()[2]); err != nil {
		t.Fatalf("equivocation broke safety: %v", err)
	}
}

func TestOutOfOrderHeldByMonitor(t *testing.T) {
	// Deliver the primary's second prepare before its first: the
	// receiver must hold it until the gap fills, then process both.
	cfg := Config{F: 1}.withDefaults()
	primary := NewReplica(0, cfg)
	backup := NewReplica(1, cfg)
	primary.Step(Message{Kind: MsgRequest, To: 0, Req: req(1, 1, kvstore.Command{Op: kvstore.OpNoop})})
	primary.Step(Message{Kind: MsgRequest, To: 0, Req: req(1, 2, kvstore.Command{Op: kvstore.OpNoop})})
	out := primary.Drain()
	var prepares []Message
	for _, m := range out {
		if m.Kind == MsgPrepare && m.To == 1 {
			prepares = append(prepares, m)
		}
	}
	if len(prepares) != 2 {
		t.Fatalf("primary emitted %d prepares to backup 1", len(prepares))
	}
	backup.Step(prepares[1]) // counter 2 first
	if sent := backup.Drain(); len(sent) != 0 || len(backup.held) != 1 {
		t.Fatalf("out-of-order prepare processed early: %d commits sent, %d held", len(sent), len(backup.held))
	}
	backup.Step(prepares[0]) // gap fills; both process
	if backup.ExecutedFrontier() != 2 {
		t.Fatalf("held prepare not drained: executed %d", backup.ExecutedFrontier())
	}
}

func TestReplayRejected(t *testing.T) {
	cfg := Config{F: 1}.withDefaults()
	primary := NewReplica(0, cfg)
	backup := NewReplica(1, cfg)
	primary.Step(Message{Kind: MsgRequest, To: 0, Req: req(1, 1, kvstore.Incr("n", 1))})
	var prep Message
	for _, m := range primary.Drain() {
		if m.Kind == MsgPrepare && m.To == 1 {
			prep = m
		}
	}
	backup.Step(prep)
	before := len(backup.Drain())
	backup.Step(prep) // replay
	if after := len(backup.Drain()); after != 0 || before == 0 {
		t.Fatalf("replayed prepare re-processed (%d, %d)", before, after)
	}
}

func TestPrimaryCrashViewChange(t *testing.T) {
	c := NewCluster(1, nil, Config{RequestTimeout: 30}, kvSM)
	c.Crash(0)
	c.Submit(1, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 0) }, 4000) {
		t.Fatal("view change never recovered the request")
	}
	for _, rep := range c.Nodes[1:] {
		if rep.view == 0 {
			t.Fatalf("replica %v still in view 0", rep.id)
		}
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()[1], c.Execs()[2]); err != nil {
		t.Fatal(err)
	}
}

func TestCommittedSlotSurvivesViewChange(t *testing.T) {
	// Commit a slot, then crash the primary: the committed decision must
	// be preserved across the view change.
	c := NewCluster(1, nil, Config{RequestTimeout: 30}, kvSM)
	r1 := req(1, 1, kvstore.Put("a", []byte("1")))
	c.Submit(0, r1)
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1) }, 300) {
		t.Fatal("initial commit failed")
	}
	c.Crash(0)
	c.Submit(1, req(1, 2, kvstore.Put("b", []byte("2"))))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(2, 0) }, 4000) {
		t.Fatal("post-crash request never committed")
	}
	c.Pump()
	for _, i := range []int{1, 2} {
		applied := c.Execs()[i].Applied()
		if len(applied) < 2 || !applied[0].Val.Equal(r1) {
			t.Fatalf("replica %d lost the committed slot: %v", i, applied)
		}
	}
}

func TestLinearMessageComplexity(t *testing.T) {
	msgs := func(f int) int {
		c := NewCluster(f, nil, Config{}, nil)
		c.Submit(0, req(1, 1, kvstore.Command{Op: kvstore.OpNoop}))
		c.RunUntil(func() bool { return c.ExecutedEverywhere(1) }, 500)
		return c.Stats().Sent
	}
	m1, m3 := msgs(1), msgs(3) // n=3 vs n=7
	// Commit is all-to-all among 2f+1, so per-request messages grow
	// ~n²... but the fact box counts *phases* ~O(N) per sender. Verify
	// the count stays well under PBFT's at the same f (PBFT n=3f+1).
	if m3 > 12*m1 {
		t.Fatalf("message growth explosive: f=1→%d, f=3→%d", m1, m3)
	}
}

func TestChaosAgreement(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 5, Seed: seed})
		c := NewCluster(1, fab, Config{RequestTimeout: 50}, kvSM)
		for i := 1; i <= 10; i++ {
			c.Submit(types.NodeID(i%3), req(1, uint64(i), kvstore.Incr("n", 1)))
			c.RunPumped(60)
			if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if !c.ExecutedEverywhere(10) {
			t.Fatalf("seed %d: stalled at %d", seed, c.Nodes[0].ExecutedFrontier())
		}
	}
}
