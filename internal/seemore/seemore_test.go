package seemore

import (
	"testing"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

type cluster struct {
	*runner.Cluster[Message]
	reps []*Replica
	cfg  Config
}

func newCluster(m, c int, mode Mode, fabric *simnet.Fabric) *cluster {
	cfg := Config{M: m, C: c, Mode: mode}
	rc := runner.New(runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind})
	cl := &cluster{Cluster: rc, cfg: cfg}
	for i := 0; i < cfg.N(); i++ {
		rep := NewReplica(types.NodeID(i), cfg)
		cl.reps = append(cl.reps, rep)
		rc.Add(types.NodeID(i), rep)
	}
	return cl
}

func (cl *cluster) submit(req types.Value) {
	cl.Inject(Message{Kind: MsgRequest, From: -1, To: cl.reps[0].Primary(), Req: req})
}

func (cl *cluster) executedOnCorrect(seq types.Seq, faulty map[types.NodeID]bool) bool {
	for _, rep := range cl.reps {
		if faulty[rep.id] || cl.Crashed(rep.id) {
			continue
		}
		if rep.ExecutedFrontier() < seq {
			return false
		}
	}
	return true
}

func TestAllModesCommit(t *testing.T) {
	for _, mode := range []Mode{Mode1TrustedCentralized, Mode2TrustedDecentralized, Mode3UntrustedDecentralized} {
		cl := newCluster(1, 1, mode, nil) // n = 6
		cl.submit(types.Value("op"))
		if !cl.RunUntil(func() bool { return cl.executedOnCorrect(1, nil) }, 500) {
			t.Fatalf("%v: request never committed everywhere", mode)
		}
	}
}

func TestMode1PhaseShape(t *testing.T) {
	// Mode 1: two phases — propose (primary→all) + reply (all→primary),
	// then the asynchronous commit. No proxy validation traffic.
	cl := newCluster(1, 1, Mode1TrustedCentralized, nil)
	cl.submit(types.Value("op"))
	cl.RunUntil(func() bool { return cl.executedOnCorrect(1, nil) }, 500)
	st := cl.Stats()
	if st.ByKind["valid"] != 0 || st.ByKind["decide-vote"] != 0 {
		t.Fatalf("mode 1 used proxy rounds: %v", st.ByKind)
	}
	if st.ByKind["propose"] == 0 || st.ByKind["reply-ok"] == 0 {
		t.Fatalf("mode 1 phases missing: %v", st.ByKind)
	}
}

func TestMode2MovesLoadToPublicCloud(t *testing.T) {
	// Mode 2: the private primary sends one proposal wave; the O(n²)
	// decision traffic flows among public proxies only.
	cl := newCluster(1, 1, Mode2TrustedDecentralized, nil)
	cl.submit(types.Value("op"))
	cl.RunUntil(func() bool { return cl.executedOnCorrect(1, nil) }, 500)
	st := cl.Stats()
	if st.ByKind["decide-vote"] == 0 {
		t.Fatalf("mode 2 proxy decision round missing: %v", st.ByKind)
	}
	if st.ByKind["valid"] != 0 {
		t.Fatalf("mode 2 should skip validation (trusted primary): %v", st.ByKind)
	}
	if st.ByKind["reply-ok"] != 0 {
		t.Fatalf("mode 2 should not burden the primary with replies: %v", st.ByKind)
	}
}

func TestMode3AddsValidationPhase(t *testing.T) {
	cl := newCluster(1, 1, Mode3UntrustedDecentralized, nil)
	cl.submit(types.Value("op"))
	cl.RunUntil(func() bool { return cl.executedOnCorrect(1, nil) }, 500)
	st := cl.Stats()
	if st.ByKind["valid"] == 0 || st.ByKind["decide-vote"] == 0 {
		t.Fatalf("mode 3 phases missing: %v", st.ByKind)
	}
}

func TestModeMessageOrdering(t *testing.T) {
	// The paper's trade-off: mode 1 is cheapest overall; mode 3 costs
	// the most (extra validation phase).
	cost := func(mode Mode) int {
		cl := newCluster(1, 1, mode, nil)
		cl.submit(types.Value("op"))
		cl.RunUntil(func() bool { return cl.executedOnCorrect(1, nil) }, 500)
		return cl.Stats().Sent
	}
	c1 := cost(Mode1TrustedCentralized)
	c3 := cost(Mode3UntrustedDecentralized)
	if c1 >= c3 {
		t.Fatalf("mode 1 (%d msgs) should undercut mode 3 (%d msgs)", c1, c3)
	}
}

func TestByzantineProxyTolerated(t *testing.T) {
	// One byzantine proxy (m=1) corrupting its votes must not block or
	// corrupt commitment in modes 2 and 3.
	for _, mode := range []Mode{Mode2TrustedDecentralized, Mode3UntrustedDecentralized} {
		cl := newCluster(1, 1, mode, nil)
		// Pick a byzantine proxy that is not the mode-3 primary.
		evil := cl.reps[0].proxies()[1]
		bad := chaincrypto.Hash([]byte("bad"))
		cl.Intercept(evil, func(m Message) []Message {
			if m.Kind == MsgValid || m.Kind == MsgDecideV || m.Kind == MsgCommit {
				m.Digest = bad
			}
			return []Message{m}
		})
		cl.submit(types.Value("op"))
		faulty := map[types.NodeID]bool{evil: true}
		if !cl.RunUntil(func() bool { return cl.executedOnCorrect(1, faulty) }, 1000) {
			t.Fatalf("%v: byzantine proxy blocked commitment", mode)
		}
	}
}

func TestPrivateCrashTolerated(t *testing.T) {
	// c=1 private crash (not the primary) must not block mode 1 (quorum
	// 2m+c+1 = 4 of 6).
	cl := newCluster(1, 1, Mode1TrustedCentralized, nil)
	cl.Crash(1) // a private backup
	cl.submit(types.Value("op"))
	if !cl.RunUntil(func() bool { return cl.executedOnCorrect(1, nil) }, 500) {
		t.Fatal("private crash blocked mode 1")
	}
}

func TestEquivocatingMode3PrimaryCannotSplit(t *testing.T) {
	// The untrusted mode-3 primary sends different proposals to
	// different proxies. Validation (2m+1 matching) prevents both from
	// being decided; correct replicas never diverge.
	cl := newCluster(1, 1, Mode3UntrustedDecentralized, nil)
	primary := cl.reps[0].Primary()
	reqA := types.Value("AAAA")
	reqB := types.Value("BBBB")
	cl.Intercept(primary, func(m Message) []Message {
		if m.Kind == MsgPropose && int(m.To)%2 == 0 {
			alt := m
			alt.Req = reqB
			alt.Digest = chaincrypto.Hash(reqB)
			return []Message{alt}
		}
		return []Message{m}
	})
	cl.submit(reqA)
	cl.Run(1000)
	// No two correct replicas decided different values at slot 1.
	var seen types.Value
	for _, rep := range cl.reps {
		if rep.id == primary {
			continue
		}
		for _, d := range rep.TakeDecisions() {
			if d.Slot != 1 {
				continue
			}
			if seen == nil {
				seen = d.Val
			} else if !seen.Equal(d.Val) {
				t.Fatal("equivocation split the decision")
			}
		}
	}
}

func TestClusterSizes(t *testing.T) {
	cl := newCluster(2, 1, Mode1TrustedCentralized, nil)
	if len(cl.reps) != 3*2+2*1+1 {
		t.Fatalf("n = %d, want 9", len(cl.reps))
	}
	if got := len(cl.reps[0].proxies()); got != 3*2+1 {
		t.Fatalf("proxies = %d, want 7", got)
	}
}

func TestManyRequestsOrdered(t *testing.T) {
	for _, mode := range []Mode{Mode1TrustedCentralized, Mode2TrustedDecentralized, Mode3UntrustedDecentralized} {
		cl := newCluster(1, 1, mode, nil)
		for i := 0; i < 10; i++ {
			cl.submit(types.Value{byte('a' + i)})
		}
		if !cl.RunUntil(func() bool { return cl.executedOnCorrect(10, nil) }, 2000) {
			t.Fatalf("%v: batch stalled", mode)
		}
		var ref []types.Decision
		for i, rep := range cl.reps {
			ds := rep.TakeDecisions()
			if i == 0 {
				ref = ds
				continue
			}
			for j := range ds {
				if j < len(ref) && !ds[j].Val.Equal(ref[j].Val) {
					t.Fatalf("%v: divergence at %d", mode, j)
				}
			}
		}
	}
}
