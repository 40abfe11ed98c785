package cheapbft

import (
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

func kvSM() smr.StateMachine { return kvstore.New() }

func req(client types.ClientID, seq uint64, cmd kvstore.Command) types.Value {
	return smr.EncodeRequest(types.Request{Client: client, SeqNo: seq, Op: cmd.Encode()})
}

func TestCheapTinyCommitsWithActiveSubset(t *testing.T) {
	c := NewCluster(1, nil, Config{}, kvSM)
	c.Submit(0, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1) }, 500) {
		t.Fatal("request never executed on all replicas")
	}
	// Passive replica (id 2 in epoch 0, f=1) executed via updates, not
	// prepares.
	st := c.Stats()
	if st.ByKind["update"] == 0 {
		t.Fatalf("no passive updates flowed: %v", st.ByKind)
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
		t.Fatal(err)
	}
}

func TestActiveSetSize(t *testing.T) {
	c := NewCluster(2, nil, Config{}, kvSM) // n=5, active=3
	active := 0
	for _, rep := range c.Nodes {
		if rep.isActive(rep.id) {
			active++
		}
	}
	if active != 3 {
		t.Fatalf("active replicas = %d, want f+1 = 3", active)
	}
}

func TestCheapTinyCheaperThanFullGroup(t *testing.T) {
	// Steady-state agreement traffic involves only f+1 replicas: with
	// f=1 (n=3) each request costs prepare(1) + commit(1→1 each way
	// among 2 actives) + update(1) — far less than 3f+1 BFT.
	c := NewCluster(1, nil, Config{}, kvSM)
	for i := 1; i <= 20; i++ {
		c.Submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
	}
	c.RunUntil(func() bool { return c.ExecutedEverywhere(20) }, 2000)
	st := c.Stats()
	perReq := float64(st.Sent) / 20
	if perReq > 8 {
		t.Fatalf("CheapTiny costs %.1f msgs/req — not cheap", perReq)
	}
}

func TestPanicSwitchesToMinBFT(t *testing.T) {
	// Crash an active backup: the primary's in-flight slot times out,
	// PANIC flows, CheapSwitch runs, and the group finishes the request
	// in MinBFT mode using the previously passive replica.
	c := NewCluster(1, nil, Config{RequestTimeout: 25}, kvSM)
	c.Crash(1) // active backup in epoch 0
	c.Submit(0, req(1, 1, kvstore.Put("k", []byte("v"))))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 1) }, 4000) {
		t.Fatalf("request never recovered after active-replica crash (modes: %v %v)",
			c.Nodes[0].Mode(), c.Nodes[2].Mode())
	}
	if c.Nodes[0].Mode() != ModeMinBFT && c.Nodes[2].Mode() != ModeMinBFT {
		t.Fatalf("no replica reached MinBFT mode: %v/%v", c.Nodes[0].Mode(), c.Nodes[2].Mode())
	}
	st := c.Stats()
	if st.ByKind["panic"] == 0 || st.ByKind["history"] == 0 || st.ByKind["switch"] == 0 {
		t.Fatalf("CheapSwitch phases missing: %v", st.ByKind)
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()[0], c.Execs()[2]); err != nil {
		t.Fatal(err)
	}
}

func TestMinBFTModeToleratesSilentReplica(t *testing.T) {
	// After switching, f+1 of 2f+1 commits suffice: the crashed replica
	// stays down and progress continues.
	c := NewCluster(1, nil, Config{RequestTimeout: 25}, kvSM)
	c.Crash(1)
	c.Submit(0, req(1, 1, kvstore.Incr("n", 1)))
	c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 1) }, 4000)
	c.Submit(0, req(1, 2, kvstore.Incr("n", 1)))
	if !c.RunUntil(func() bool { return c.ExecutedEverywhere(2, 1) }, 2000) {
		t.Fatal("MinBFT mode stalled with one silent replica")
	}
	c.Pump()
	if err := smr.CheckPrefixConsistency(c.Execs()[0], c.Execs()[2]); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchBackAfterQuietPeriod(t *testing.T) {
	c := NewCluster(1, nil, Config{RequestTimeout: 25, QuietTicks: 60}, kvSM)
	c.Crash(1)
	c.Submit(0, req(1, 1, kvstore.Command{Op: kvstore.OpNoop}))
	c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 1) }, 4000)
	c.Restart(1)
	ok := c.RunUntil(func() bool {
		return c.Nodes[0].Mode() == ModeCheapTiny && c.Nodes[2].Mode() == ModeCheapTiny
	}, 4000)
	if !ok {
		t.Fatalf("never switched back: %v/%v", c.Nodes[0].Mode(), c.Nodes[2].Mode())
	}
	if c.Nodes[0].epoch == 0 {
		t.Fatal("switch-back kept the old epoch")
	}
}

func TestEpochIsolationOfCertificates(t *testing.T) {
	// Messages certified under the old epoch are rejected after a
	// switch — the CASH replay protection.
	cfg := Config{F: 1}.withDefaults()
	a := NewReplica(0, cfg)
	b := NewReplica(1, cfg)
	a.Step(Message{Kind: MsgRequest, To: 0, Req: req(1, 1, kvstore.Command{Op: kvstore.OpNoop})})
	var prep Message
	for _, m := range a.Drain() {
		if m.Kind == MsgPrepare && m.To == 1 {
			prep = m
		}
	}
	// Advance b's epoch (as CheapSwitch would) and replay the epoch-0
	// prepare with a forged epoch tag.
	forged := prep
	forged.Epoch = 1
	b.epoch = 1
	b.Step(forged)
	if b.ExecutedFrontier() != 0 {
		t.Fatal("cross-epoch replay accepted")
	}
}

func TestChaosConsistency(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 4, Seed: seed})
		c := NewCluster(1, fab, Config{RequestTimeout: 40}, kvSM)
		for i := 1; i <= 12; i++ {
			c.Submit(types.NodeID(i%3), req(1, uint64(i), kvstore.Incr("n", 1)))
			c.Run(70)
			c.Pump()
			if err := smr.CheckPrefixConsistency(c.Execs()...); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if !c.ExecutedEverywhere(12) {
			t.Fatalf("seed %d: stalled at %d/%d/%d", seed,
				c.Nodes[0].ExecutedFrontier(), c.Nodes[1].ExecutedFrontier(), c.Nodes[2].ExecutedFrontier())
		}
	}
}
