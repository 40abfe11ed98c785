package zyzzyva

import (
	"testing"

	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

func TestFastPathAllCorrect(t *testing.T) {
	// Case 1: no faults → the client completes with 3f+1 matching
	// speculative responses in one phase.
	c := NewCluster(1, 1, nil, Config{})
	cl := c.Clients[0]
	cl.Submit(types.Value("op-1"))
	var comp []Completion
	ok := c.RunUntil(func() bool {
		comp = append(comp, cl.Completions()...)
		return len(comp) > 0
	}, 300)
	if !ok {
		t.Fatal("request never completed")
	}
	if comp[0].Path != PathFast {
		t.Fatalf("path = %v, want fast", comp[0].Path)
	}
}

func TestCertPathWithSilentBackup(t *testing.T) {
	// Case 2: one silent backup → only 3f matching responses → the
	// client falls back to the commit-certificate path.
	c := NewCluster(1, 1, nil, Config{ClientFastWait: 10})
	c.Intercept(3, func(m Message) []Message { return nil })
	cl := c.Clients[0]
	cl.Submit(types.Value("op-1"))
	var comp []Completion
	ok := c.RunUntil(func() bool {
		comp = append(comp, cl.Completions()...)
		return len(comp) > 0
	}, 500)
	if !ok {
		t.Fatal("request never completed")
	}
	if comp[0].Path != PathCert {
		t.Fatalf("path = %v, want certified", comp[0].Path)
	}
	// Replicas that processed the certificate advanced their stable
	// frontier.
	stable := 0
	for _, r := range c.Replicas {
		if r.committed >= comp[0].Seq {
			stable++
		}
	}
	if stable < 2*c.F+1 {
		t.Fatalf("only %d replicas stabilized", stable)
	}
}

func TestFastPathLatencyBeatsCertPath(t *testing.T) {
	run := func(mute bool) int {
		c := NewCluster(1, 1, nil, Config{ClientFastWait: 10})
		if mute {
			c.Intercept(3, func(m Message) []Message { return nil })
		}
		cl := c.Clients[0]
		cl.Submit(types.Value("op"))
		var comp []Completion
		c.RunUntil(func() bool {
			comp = append(comp, cl.Completions()...)
			return len(comp) > 0
		}, 500)
		if len(comp) == 0 {
			t.Fatal("no completion")
		}
		return comp[0].Latency
	}
	fast, cert := run(false), run(true)
	if fast >= cert {
		t.Fatalf("fast path (%d) not faster than cert path (%d)", fast, cert)
	}
}

func TestSequentialRequestsStayOrdered(t *testing.T) {
	c := NewCluster(1, 1, nil, Config{})
	cl := c.Clients[0]
	var comp []Completion
	for i := 0; i < 10; i++ {
		cl.Submit(types.Value{byte('a' + i)})
		ok := c.RunUntil(func() bool {
			comp = append(comp, cl.Completions()...)
			return len(comp) == i+1
		}, 500)
		if !ok {
			t.Fatalf("request %d never completed", i)
		}
	}
	for i := 1; i < len(comp); i++ {
		if comp[i].Seq <= comp[i-1].Seq {
			t.Fatalf("sequence regressed: %d then %d", comp[i-1].Seq, comp[i].Seq)
		}
	}
	if err := c.SpecAgreement(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaRejectsHistoryMismatch(t *testing.T) {
	// A primary whose order-req carries an inconsistent history digest
	// is caught immediately.
	r := NewReplica(1, Config{F: 1})
	r.Step(Message{Kind: MsgOrderReq, From: 0, View: 0, Seq: 1,
		Req: types.Value("x"), History: [32]byte{0xFF}})
	if r.seq != 0 {
		t.Fatal("replica executed despite history mismatch")
	}
	if !r.viewChanging {
		t.Fatal("replica did not demand a view change")
	}
}

func TestGapHeld(t *testing.T) {
	// Order-req with seq 2 before seq 1 must not execute.
	r := NewReplica(1, Config{F: 1})
	r.Step(Message{Kind: MsgOrderReq, From: 0, View: 0, Seq: 2, Req: types.Value("x")})
	if r.seq != 0 {
		t.Fatal("gap executed out of order")
	}
}

func TestCrashedPrimaryViewChangeRecovers(t *testing.T) {
	c := NewCluster(1, 1, nil, Config{})
	c.Crash(0)
	cl := c.Clients[0]
	cl.Submit(types.Value("survive"))
	var comp []Completion
	ok := c.RunUntil(func() bool {
		comp = append(comp, cl.Completions()...)
		return len(comp) > 0
	}, 5000)
	if !ok {
		t.Fatal("request lost to primary crash")
	}
	for _, r := range c.Replicas[1:] {
		if r.view == 0 {
			t.Fatalf("replica %v never left view 0", r.id)
		}
	}
}

func TestCommittedPrefixSurvivesViewChange(t *testing.T) {
	// Commit a request via certificate, then crash the primary: the
	// committed slot must survive into the new view on all replicas.
	c := NewCluster(1, 1, nil, Config{ClientFastWait: 5})
	c.Intercept(3, func(m Message) []Message { return nil }) // force cert path
	cl := c.Clients[0]
	cl.Submit(types.Value("persist"))
	var comp []Completion
	if !c.RunUntil(func() bool {
		comp = append(comp, cl.Completions()...)
		return len(comp) > 0
	}, 500) {
		t.Fatal("initial request never committed")
	}
	c.Restart(3) // silence lifted
	c.Intercept(3, nil)
	c.Crash(0)
	cl.Submit(types.Value("after-crash"))
	if !c.RunUntil(func() bool {
		comp = append(comp, cl.Completions()...)
		return len(comp) > 1
	}, 5000) {
		t.Fatal("post-crash request never completed")
	}
	if err := c.SpecAgreement(0); err != nil {
		t.Fatal(err)
	}
	// Slot 1 holds the committed request on all live replicas.
	want := append(types.Value{byte(cl.id)}, []byte("persist")...)
	for _, r := range c.Replicas[1:] {
		if got, ok := r.log[1]; !ok || !got.Equal(want) {
			t.Fatalf("replica %v slot 1 = %q (ok=%v)", r.id, got, ok)
		}
	}
}

func TestSpecSafetyUnderChaos(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 4, DropRate: 0.05, Seed: seed})
		c := NewCluster(1, 1, fab, Config{ClientFastWait: 8})
		cl := c.Clients[0]
		done := 0
		for i := 0; i < 8; i++ {
			cl.Submit(types.Value{byte(i), byte(seed)})
			c.RunUntil(func() bool {
				done += len(cl.Completions())
				return done > i
			}, 2000)
			if err := c.SpecAgreement(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if done < 8 {
			t.Fatalf("seed %d: only %d/8 completed", seed, done)
		}
	}
}

func TestPhaseCounts(t *testing.T) {
	// Fast path: order-req + spec-response only. Cert path adds
	// commit-cert + local-commit.
	c := NewCluster(1, 1, nil, Config{})
	c.Clients[0].Submit(types.Value("x"))
	c.RunUntil(func() bool { return len(c.Clients[0].Completions()) > 0 }, 300)
	st := c.Stats()
	if st.ByKind["commit-cert"] != 0 {
		t.Fatalf("fast path used certificates: %v", st.ByKind)
	}

	c2 := NewCluster(1, 1, nil, Config{ClientFastWait: 8})
	c2.Intercept(3, func(m Message) []Message { return nil })
	c2.Clients[0].Submit(types.Value("y"))
	c2.RunUntil(func() bool { return len(c2.Clients[0].Completions()) > 0 }, 500)
	st2 := c2.Stats()
	if st2.ByKind["commit-cert"] == 0 || st2.ByKind["local-commit"] == 0 {
		t.Fatalf("cert path missing phases: %v", st2.ByKind)
	}
}

func TestTwoClientsInterleave(t *testing.T) {
	// Two clients with one outstanding request each: both complete, and
	// the speculative order assigns them distinct sequence numbers.
	c := NewCluster(1, 2, nil, Config{})
	c.Clients[0].Submit(types.Value("from-c0"))
	c.Clients[1].Submit(types.Value("from-c1"))
	var done []Completion
	ok := c.RunUntil(func() bool {
		done = append(done, c.Clients[0].Completions()...)
		done = append(done, c.Clients[1].Completions()...)
		return len(done) >= 2
	}, 1000)
	if !ok {
		t.Fatalf("only %d/2 clients completed", len(done))
	}
	if done[0].Seq == done[1].Seq {
		t.Fatal("two requests shared a sequence number")
	}
	if err := c.SpecAgreement(); err != nil {
		t.Fatal(err)
	}
}

// SpecAgreement verifies that all correct replicas' speculative logs
// agree on every slot both hold up to the lower committed frontier, and
// that histories are prefix-consistent (same seq ⇒ same history digest
// implies same log). byzantine lists replicas to skip.
func (c *Cluster) SpecAgreement(byzantine ...types.NodeID) error {
	skip := map[types.NodeID]bool{}
	for _, b := range byzantine {
		skip[b] = true
	}
	var reps []*Replica
	for _, r := range c.Replicas {
		if !skip[r.id] {
			reps = append(reps, r)
		}
	}
	for i := 0; i < len(reps); i++ {
		for j := i + 1; j < len(reps); j++ {
			a, b := reps[i], reps[j]
			lim := a.committed
			if b.committed < lim {
				lim = b.committed
			}
			for s := types.Seq(1); s <= lim; s++ {
				av, aok := a.log[s]
				bv, bok := b.log[s]
				if aok && bok && !av.Equal(bv) {
					return &divergence{a.id, b.id, s}
				}
			}
		}
	}
	return nil
}

type divergence struct {
	a, b types.NodeID
	slot types.Seq
}

func (d *divergence) Error() string {
	return "zyzzyva: committed logs diverge at slot " + d.slot.String() + " between " + d.a.String() + " and " + d.b.String()
}
