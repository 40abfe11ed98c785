package experiments

import (
	"fmt"

	"fortyconsensus/internal/cheapbft"
	"fortyconsensus/internal/core"
	"fortyconsensus/internal/fastpaxos"
	"fortyconsensus/internal/hotstuff"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/metrics"
	"fortyconsensus/internal/minbft"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/paxos"
	"fortyconsensus/internal/pbft"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/seemore"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/xft"
	"fortyconsensus/internal/zyzzyva"
)

func init() {
	register("t1", T1Characterization)
	register("t2", T2PBFTComplexity)
	register("t3", T3TrustedHW)
	register("t4", T4HybridQuorums)
}

func kvSM() smr.StateMachine { return kvstore.New() }

func req(seq uint64) types.Value {
	return smr.EncodeRequest(types.Request{Client: 1, SeqNo: seq, Op: kvstore.Incr("n", 1).Encode()})
}

// protoProbe measures one committed operation for a protocol: ticks from
// submission to first commit and messages sent, on a uniform 1-tick
// network at fault budget f=1.
type protoProbe struct {
	name string
	run  func() (ticks int, msgs int)
}

// measureSingleOp is a helper running fn after warmup and measuring the
// steady-state commit of one request.
func measure[M any](c *runner.Cluster[M], warmup int, submit func(), done func() bool) (int, int) {
	c.Run(warmup)
	c.ResetStats()
	start := c.Now()
	submit()
	c.RunUntil(done, 2000)
	return c.Now() - start, c.Stats().Sent
}

// multiPaxosProbe is T1's probe for a 3-node Multi-Paxos cluster under
// cfg; Flexible Paxos is the same probe with cfg.Quorums set.
func multiPaxosProbe(cfg multipaxos.Config) func() (int, int) {
	return func() (int, int) {
		c := multipaxos.NewCluster(3, nil, cfg, nil)
		lead := c.WaitLeader(500)
		return measure(c.Cluster, 20,
			func() { lead.Submit(req(1)) },
			func() bool { return lead.CommitFrontier() >= 1 })
	}
}

// T1Characterization regenerates the paper's per-protocol fact boxes:
// claimed aspects beside measured commit latency and message cost.
func T1Characterization() Result {
	t := metrics.NewTable("T1 — protocol characterization at f=1 (claimed aspects vs measured single-op cost)",
		"protocol", "failure", "strategy", "nodes", "quorum", "phases", "complexity", "ticks/op", "msgs/op")

	probes := []protoProbe{
		{"paxos", func() (int, int) {
			c := paxos.NewCluster(3, nil, paxos.Config{})
			return measure(c.Cluster, 0,
				func() { c.Nodes[0].Propose(types.Value("v")) },
				func() bool { _, ok := c.Nodes[0].Decided(); return ok })
		}},
		{"multipaxos", multiPaxosProbe(multipaxos.Config{Seed: 1})},
		{"raft", func() (int, int) {
			c := raft.NewCluster(3, nil, raft.Config{Seed: 2}, nil)
			lead := c.WaitLeader(500)
			return measure(c.Cluster, 20,
				func() { lead.Submit(req(1)) },
				func() bool { return lead.CommitFrontier() >= 2 }) // slot 1 is the term no-op
		}},
		{"fastpaxos", func() (int, int) {
			rc := runner.New(runner.Config[fastpaxos.Message]{Dest: fastpaxos.Dest, Src: fastpaxos.Src, Kind: fastpaxos.Kind})
			cfg := fastpaxos.Config{F: 1}
			nodes := make([]*fastpaxos.Node, 4)
			for i := range nodes {
				nodes[i] = fastpaxos.NewNode(types.NodeID(i), cfg)
				rc.Add(types.NodeID(i), nodes[i])
			}
			return measure(rc, 0,
				func() {
					for i := 0; i < 4; i++ {
						rc.Inject(fastpaxos.Message{Kind: fastpaxos.MsgPropose, From: -1, To: types.NodeID(i), Val: types.Value("v")})
					}
				},
				func() bool { _, ok := nodes[0].Decided(); return ok })
		}},
		{"flexpaxos", multiPaxosProbe(multipaxos.Config{Seed: 3, Quorums: quorum.Flexible{N: 3, Q1: 2, Q2: 2}})},
		{"pbft", func() (int, int) {
			c := pbft.NewCluster(1, nil, pbft.Config{}, nil)
			return measure(c.Cluster, 0,
				func() { c.Submit(0, req(1)) },
				func() bool { return c.Nodes[0].ExecutedFrontier() >= 1 })
		}},
		{"zyzzyva", func() (int, int) {
			c := zyzzyva.NewCluster(1, 1, nil, zyzzyva.Config{})
			cl := c.Clients[0]
			return measure(c.Cluster, 0,
				func() { cl.Submit(types.Value("v")) },
				func() bool { return len(cl.Completions()) > 0 })
		}},
		{"hotstuff", func() (int, int) {
			c := hotstuff.NewCluster(1, nil, hotstuff.Config{ViewTimeout: 10}, nil)
			c.Run(30)
			c.ResetStats()
			before := c.Nodes[0].CommittedBlocks()
			start := c.Now()
			c.Submit(req(1))
			c.RunUntil(func() bool { return c.Nodes[0].CommittedBlocks() > before+2 }, 500)
			blocks := c.Nodes[0].CommittedBlocks() - before
			msgs := c.Stats().Sent
			if blocks > 0 {
				msgs /= blocks
			}
			return c.Now() - start, msgs
		}},
		{"minbft", func() (int, int) {
			c := minbft.NewCluster(1, nil, minbft.Config{}, nil)
			return measure(c.Cluster, 0,
				func() { c.Submit(0, req(1)) },
				func() bool { return c.Nodes[0].ExecutedFrontier() >= 1 })
		}},
		{"cheapbft", func() (int, int) {
			c := cheapbft.NewCluster(1, nil, cheapbft.Config{}, nil)
			return measure(c.Cluster, 0,
				func() { c.Submit(0, req(1)) },
				func() bool { return c.Nodes[0].ExecutedFrontier() >= 1 })
		}},
		{"upright", func() (int, int) {
			c := pbft.NewCluster(1, nil, pbft.Config{C: 1}, nil)
			return measure(c.Cluster, 0,
				func() { c.Submit(0, req(1)) },
				func() bool { return c.Nodes[0].ExecutedFrontier() >= 1 })
		}},
		{"seemore", func() (int, int) {
			cfg := seemore.Config{M: 1, C: 1, Mode: seemore.Mode1TrustedCentralized}
			rc := runner.New(runner.Config[seemore.Message]{Dest: seemore.Dest, Src: seemore.Src, Kind: seemore.Kind})
			reps := make([]*seemore.Replica, cfg.N())
			for i := range reps {
				reps[i] = seemore.NewReplica(types.NodeID(i), cfg)
				rc.Add(types.NodeID(i), reps[i])
			}
			return measure(rc, 0,
				func() { rc.Inject(seemore.Message{Kind: seemore.MsgRequest, From: -1, To: 0, Req: req(1)}) },
				func() bool { return reps[0].ExecutedFrontier() >= 1 })
		}},
		{"xft", func() (int, int) {
			rc := runner.New(runner.Config[xft.Message]{Dest: xft.Dest, Src: xft.Src, Kind: xft.Kind})
			reps := make([]*xft.Replica, 3)
			for i := range reps {
				reps[i] = xft.NewReplica(types.NodeID(i), xft.Config{F: 1})
				rc.Add(types.NodeID(i), reps[i])
			}
			return measure(rc, 0,
				func() { rc.Inject(xft.Message{Kind: xft.MsgRequest, From: -1, To: 0, Req: req(1)}) },
				func() bool { return reps[0].ExecutedFrontier() >= 1 })
		}},
	}
	measured := map[string][2]int{}
	for _, p := range probes {
		ticks, msgs := p.run()
		measured[p.name] = [2]int{ticks, msgs}
	}

	for _, prof := range core.All() {
		row := []string{
			prof.Name,
			prof.Failure.String(),
			prof.Strategy.String(),
			fmt.Sprintf("%s=%d", prof.NodesFormula, prof.NodesFor(1)),
			fmt.Sprint(prof.QuorumFor(1)),
			prof.PhasesString(),
			prof.Complexity.String(),
			"-", "-",
		}
		if m, ok := measured[prof.Name]; ok {
			row[7] = fmt.Sprint(m[0])
			row[8] = fmt.Sprint(m[1])
		}
		t.AddRow(row...)
	}
	return Result{ID: "T1", Caption: "Protocol characterization (fact boxes)", Artifact: t.String()}
}

// T2PBFTComplexity measures PBFT's message growth: normal-case messages
// per committed operation and view-change traffic as n grows.
func T2PBFTComplexity() Result {
	t := metrics.NewTable("T2 — PBFT message complexity (claimed O(n²) normal case, O(n³) view change)",
		"n", "f", "msgs/op", "msgs/op ÷ n²", "view-change msgs", "vc ÷ n²")
	for _, f := range []int{1, 2, 3, 4} {
		n := quorum.Byzantine{F: f}.Size()
		// Normal case.
		c := pbft.NewCluster(f, nil, pbft.Config{}, nil)
		const ops = 5
		var sent int
		for i := 1; i <= ops; i++ {
			c.ResetStats()
			c.Submit(0, req(uint64(i)))
			c.RunUntil(func() bool { return c.Nodes[0].ExecutedFrontier() >= types.Seq(i) }, 2000)
			sent += c.Stats().Sent
		}
		perOp := float64(sent) / ops

		// View change: crash the primary with a pending request.
		vc := pbft.NewCluster(f, nil, pbft.Config{RequestTimeout: 25}, nil)
		vc.Crash(0)
		vc.Submit(1, req(100))
		vc.RunUntil(func() bool { return vc.ExecutedEverywhere(1, 0) }, 5000)
		vcMsgs := vc.Stats().ByKind["view-change"] + vc.Stats().ByKind["new-view"]

		t.AddRowf(n, f, perOp, perOp/float64(n*n), vcMsgs, float64(vcMsgs)/float64(n*n))
	}
	return Result{ID: "T2", Caption: "PBFT normal-case and view-change message complexity", Artifact: t.String()}
}

// T3TrustedHW compares PBFT against the trusted-component protocols at
// equal fault budgets: replicas, phases (ticks), and messages.
func T3TrustedHW() Result {
	t := metrics.NewTable("T3 — trusted components cut replicas and phases (f=1 and f=2)",
		"protocol", "f", "replicas", "active", "ticks/op", "msgs/op")
	for _, f := range []int{1, 2} {
		{
			c := pbft.NewCluster(f, nil, pbft.Config{}, nil)
			ticks, msgs := measure(c.Cluster, 0,
				func() { c.Submit(0, req(1)) },
				func() bool { return c.ExecutedEverywhere(1) })
			n := quorum.Byzantine{F: f}.Size()
			t.AddRowf("pbft", f, n, n, ticks, msgs)
		}
		{
			c := minbft.NewCluster(f, nil, minbft.Config{}, nil)
			ticks, msgs := measure(c.Cluster, 0,
				func() { c.Submit(0, req(1)) },
				func() bool { return c.ExecutedEverywhere(1) })
			n := quorum.Trusted{F: f}.Size()
			t.AddRowf("minbft", f, n, n, ticks, msgs)
		}
		{
			c := cheapbft.NewCluster(f, nil, cheapbft.Config{}, nil)
			ticks, msgs := measure(c.Cluster, 0,
				func() { c.Submit(0, req(1)) },
				func() bool { return c.ExecutedEverywhere(1) })
			t.AddRowf("cheapbft", f, len(c.Nodes), f+1, ticks, msgs)
		}
	}
	return Result{ID: "T3", Caption: "PBFT vs MinBFT vs CheapBFT", Artifact: t.String()}
}

// T4HybridQuorums regenerates the UpRight arithmetic table and verifies
// commitment at the exact fault budget.
func T4HybridQuorums() Result {
	t := metrics.NewTable("T4 — hybrid quorums (UpRight/SeeMoRe): network 3m+2c+1, quorum 2m+c+1, intersection m+1",
		"m", "c", "network", "quorum", "intersection", "commits at exact budget")
	for _, mc := range [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}} {
		m, c := mc[0], mc[1]
		h := quorum.Hybrid{M: m, C: c}
		committed := "yes"
		{
			cl := pbft.NewCluster(m, nil, pbft.Config{C: c}, nil)
			n := len(cl.Nodes)
			// Crash the last c replicas; mute m more as byzantine-silent.
			for i := 0; i < c; i++ {
				cl.Crash(types.NodeID(n - 1 - i))
			}
			for i := 0; i < m; i++ {
				cl.Intercept(types.NodeID(n-1-c-i), func(pbft.Message) []pbft.Message { return nil })
			}
			cl.Submit(0, req(1))
			ok := cl.RunUntil(func() bool { return cl.Nodes[0].ExecutedFrontier() >= 1 }, 2000)
			if !ok {
				committed = "NO"
			}
		}
		t.AddRowf(m, c, h.Size(), h.Threshold(), h.Intersection(), committed)
	}
	return Result{ID: "T4", Caption: "Hybrid quorum arithmetic under exact fault budgets", Artifact: t.String()}
}
