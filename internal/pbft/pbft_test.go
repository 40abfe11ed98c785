package pbft

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

func TestNormalCaseCommit(t *testing.T) {
	c := NewCluster(1, nil, Config{}, kvSM)
	c.Submit(0, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1) }, 300) {
		t.Fatal("request never executed everywhere")
	}
	replies, _ := c.Pump()
	val, n := MatchingReplies(replies, 1, 1)
	if n < c.F+1 {
		t.Fatalf("only %d matching replies, need %d", n, c.F+1)
	}
	if !val.Equal(kvstore.ReplyOK) {
		t.Fatalf("reply = %q", val)
	}
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestThreePhases(t *testing.T) {
	c := NewCluster(1, nil, Config{}, nil)
	c.Submit(0, req(1, 1, kvstore.Command{Op: kvstore.OpNoop}))
	c.RunUntil(func() bool { return c.ExecutedEverywhere(1) }, 300)
	st := c.Stats()
	for _, k := range []string{"pre-prepare", "prepare", "commit"} {
		if st.ByKind[k] == 0 {
			t.Fatalf("phase %q never ran: %v", k, st.ByKind)
		}
	}
	// Quadratic shape: prepare and commit are all-to-all (n·(n−1) each
	// in the worst case), pre-prepare is 1-to-n.
	if st.ByKind["prepare"] <= st.ByKind["pre-prepare"] {
		t.Fatalf("prepare (%d) should outnumber pre-prepare (%d)",
			st.ByKind["prepare"], st.ByKind["pre-prepare"])
	}
}

func TestRequestViaBackupReachesPrimary(t *testing.T) {
	c := NewCluster(1, nil, Config{}, kvSM)
	c.Submit(2, req(1, 1, kvstore.Put("x", []byte("1")))) // backup, not primary
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1) }, 300) {
		t.Fatal("relayed request never executed")
	}
}

func TestManyRequestsOrdered(t *testing.T) {
	c := NewCluster(1, nil, Config{}, kvSM)
	const total = 60
	for i := 1; i <= total; i++ {
		c.Submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
	}
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(total) }, 3000) {
		t.Fatalf("executed frontier stalled at %d", c.Nodes[0].ExecutedFrontier())
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	c := NewCluster(1, nil, Config{CheckpointEvery: 8}, nil)
	for i := 1; i <= 40; i++ {
		c.Submit(0, req(1, uint64(i), kvstore.Command{Op: kvstore.OpNoop}))
	}
	c.RunUntil(func() bool { return c.ExecutedEverywhere(40) }, 3000)
	c.Run(50) // let checkpoint votes settle
	for _, rep := range c.Nodes {
		if rep.lastStable < 8 {
			t.Fatalf("replica %v never stabilized a checkpoint (lastStable=%d)", rep.id, rep.lastStable)
		}
		for seq := range rep.slots {
			if seq <= rep.lastStable {
				t.Fatalf("replica %v kept slot %d below stable %d", rep.id, seq, rep.lastStable)
			}
		}
	}
}

func TestSilentByzantineBackupTolerated(t *testing.T) {
	// f=1: one silent backup must not stop progress.
	c := NewCluster(1, nil, Config{}, kvSM)
	c.Intercept(3, func(m Message) []Message { return nil }) // mute replica 3
	c.Submit(0, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 3) }, 500) {
		t.Fatal("silent backup blocked commitment")
	}
}

func TestCrashedPrimaryViewChange(t *testing.T) {
	c := NewCluster(1, nil, Config{RequestTimeout: 30}, kvSM)
	c.Crash(0) // primary of view 0
	c.Submit(1, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 0) }, 3000) {
		t.Fatal("view change never recovered the request")
	}
	for _, rep := range c.Nodes[1:] {
		if rep.view == 0 {
			t.Fatalf("replica %v still in view 0", rep.id)
		}
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedRequestSurvivesViewChange(t *testing.T) {
	// Order across views: a request prepared in view 0 must keep its
	// sequence number after the view change (commit phase's purpose).
	c := NewCluster(1, nil, Config{RequestTimeout: 30}, kvSM)
	r1 := req(1, 1, kvstore.Put("a", []byte("1")))
	c.Submit(0, r1)
	// Let the request prepare but cut the primary before commits spread.
	c.RunUntil(func() bool {
		for _, s := range c.Nodes[1].slots {
			if s.prepared {
				return true
			}
		}
		return false
	}, 200)
	c.Crash(0)
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 0) }, 3000) {
		t.Fatal("prepared request lost across view change")
	}
	c.Pump()
	// The value at slot 1 must be r1 on all live replicas.
	for i := 1; i < 4; i++ {
		applied := c.Execs()[i].Applied()
		if len(applied) == 0 || !applied[0].Val.Equal(r1) {
			t.Fatalf("replica %d slot 1 = %v", i, applied)
		}
	}
}

func TestEquivocatingPrimaryCaught(t *testing.T) {
	// The primary assigns the same sequence to different requests for
	// different backups. Correct replicas must never execute divergent
	// prefixes; the cluster recovers by view change.
	c := NewCluster(1, nil, Config{RequestTimeout: 30}, kvSM)
	reqA := req(1, 1, kvstore.Put("k", []byte("A")))
	reqB := req(1, 1, kvstore.Put("k", []byte("B")))
	c.Intercept(0, func(m Message) []Message {
		if m.Kind == MsgPrePrepare && m.To == 2 {
			// Send replica 2 a different request at the same seq.
			alt := m
			alt.Req = reqB
			alt.Digest = chaincrypto.Hash(reqB)
			return []Message{alt}
		}
		return []Message{m}
	})
	c.Submit(0, reqA)
	c.RunPumped(2000)
	if err := smr.CheckPrefixConsistency(c.Execs()[1], c.Execs()[2], c.Execs()[3]); err != nil {
		t.Fatalf("equivocation broke safety: %v", err)
	}
}

func TestByzantineBackupGarbagePrepares(t *testing.T) {
	// A backup spamming prepares/commits with wrong digests must not
	// corrupt agreement.
	c := NewCluster(1, nil, Config{}, kvSM)
	evil := chaincrypto.Hash([]byte("evil"))
	c.Intercept(3, func(m Message) []Message {
		if m.Kind == MsgPrepare || m.Kind == MsgCommit {
			m.Digest = evil
		}
		return []Message{m}
	})
	c.Submit(0, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 3) }, 1000) {
		t.Fatal("garbage digests blocked progress")
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()[0], c.Execs()[1], c.Execs()[2]); err != nil {
		t.Fatal(err)
	}
}

func TestSafetyUnderChaos(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 5, DropRate: 0.05, Seed: seed})
		c := NewCluster(1, fab, Config{RequestTimeout: 40}, kvSM)
		rng := simnet.NewRNG(seed + 500)
		seq := uint64(0)
		for round := 0; round < 15; round++ {
			seq++
			c.Submit(types.NodeID(rng.Intn(4)), req(1, seq, kvstore.Incr("n", 1)))
			c.RunPumped(60)
			if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
	}
}

func TestViewChangeMessageComplexity(t *testing.T) {
	// View change costs more than normal case: measure that view-change
	// traffic exists and normal-case prepare/commit dominate steady
	// state. (The O(n³) claim is exercised quantitatively in bench T2.)
	c := NewCluster(1, nil, Config{RequestTimeout: 25}, nil)
	c.Crash(0)
	c.Submit(1, req(1, 1, kvstore.Command{Op: kvstore.OpNoop}))
	c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 0) }, 3000)
	st := c.Stats()
	if st.ByKind["view-change"] == 0 || st.ByKind["new-view"] == 0 {
		t.Fatalf("view change never happened: %v", st.ByKind)
	}
}

func TestClientRetryDeduped(t *testing.T) {
	c := NewCluster(1, nil, Config{}, kvSM)
	r := req(1, 1, kvstore.Incr("n", 1))
	c.Submit(0, r)
	c.RunUntil(func() bool { return c.ExecutedEverywhere(1) }, 300)
	c.Submit(0, r) // client retry of the same request
	c.Run(200)
	c.Pump()
	for _, rep := range c.Nodes {
		if rep.ExecutedFrontier() > 1 {
			t.Fatalf("retry re-executed: frontier=%d", rep.ExecutedFrontier())
		}
	}
}

func TestLaggingReplicaCatchesUp(t *testing.T) {
	// A replica cut off while others commit must catch up via the fetch
	// protocol once reconnected (checkpoint gossip reveals the gap).
	fab := simnet.NewFabric(simnet.Options{Seed: 12})
	c := NewCluster(1, fab, Config{CheckpointEvery: 4, RequestTimeout: 1 << 30}, kvSM)
	// Cut replica 3 off entirely.
	for i := 0; i < 3; i++ {
		fab.CutLink(types.NodeID(i), 3)
		fab.CutLink(3, types.NodeID(i))
	}
	for i := 1; i <= 12; i++ {
		c.Submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
	}
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(12, 3) }, 3000) {
		t.Fatal("main group stalled")
	}
	if c.Nodes[3].ExecutedFrontier() != 0 {
		t.Fatal("isolated replica executed something")
	}
	// Reconnect: checkpoint broadcasts trigger fetch; f+1 matching
	// responses rebuild the missing slots.
	for i := 0; i < 3; i++ {
		fab.RestoreLink(types.NodeID(i), 3)
		fab.RestoreLink(3, types.NodeID(i))
	}
	// Generate one more committed slot so fresh checkpoints flow.
	for i := 13; i <= 16; i++ {
		c.Submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
	}
	if !c.RunUntil(func() bool { return c.Nodes[3].ExecutedFrontier() >= 12 }, 5000) {
		t.Fatalf("straggler stuck at %d", c.Nodes[3].ExecutedFrontier())
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestFetchRespForgeryNeedsQuorum(t *testing.T) {
	// A single byzantine peer cannot inject fake slots: adoption needs
	// f+1 matching responses.
	r := NewReplica(0, Config{F: 1})
	forged := types.Value("forged-entry")
	resp := Message{Kind: MsgFetchResp, From: 3, To: 0, Slots: []PreparedProof{
		{Seq: 1, Digest: chaincrypto.Hash(forged), Req: forged},
	}}
	r.Step(resp)
	if r.ExecutedFrontier() != 0 {
		t.Fatal("single forged fetch response executed")
	}
	// A second distinct peer vouching for the same content commits it.
	resp.From = 2
	r.Step(resp)
	if r.ExecutedFrontier() != 1 {
		t.Fatal("f+1 matching responses did not commit the slot")
	}
}

// MatchingReplies counts replies for (client, seqno) agreeing on the
// same result; a client accepts at f+1 matching replies.
func MatchingReplies(replies []types.Reply, client types.ClientID, seqno uint64) (types.Value, int) {
	counts := map[string]int{}
	var best types.Value
	bestN := 0
	for _, r := range replies {
		if r.Client != client || r.SeqNo != seqno {
			continue
		}
		counts[string(r.Result)]++
		if counts[string(r.Result)] > bestN {
			bestN = counts[string(r.Result)]
			best = r.Result
		}
	}
	return best, bestN
}
