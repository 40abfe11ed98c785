package experiments

import (
	"fmt"
	"fortyconsensus/internal/replog"

	"fortyconsensus/internal/core"
	"fortyconsensus/internal/core/icagree"
	"fortyconsensus/internal/fastpaxos"
	"fortyconsensus/internal/hotstuff"
	"fortyconsensus/internal/metrics"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/paxos"
	"fortyconsensus/internal/pbft"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/xft"
	"fortyconsensus/internal/zyzzyva"
)

func init() {
	register("f1", F1DuelingProposers)
	register("f2", F2FastPaxos)
	register("f3", F3FlexibleQuorums)
	register("f4", F4Zyzzyva)
	register("f5", F5HotStuffPipeline)
	register("f6", F6XFT)
	register("f9", F9InteractiveConsistency)
	register("f10", F10CnCDecomposition)
}

// F1DuelingProposers reproduces the liveness slides: two proposers
// preempt each other; randomized backoff resolves the livelock faster.
func F1DuelingProposers() Result {
	fig := metrics.NewFigure("F1 — dueling proposers: ballots started before a decision (30 seeds)", "metric")
	for _, mode := range []struct {
		name    string
		backoff bool
	}{{"fixed-timeout", false}, {"randomized-backoff", true}} {
		restarts := metrics.NewHistogram()
		ticks := metrics.NewHistogram()
		for seed := uint64(0); seed < 30; seed++ {
			fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 3, Seed: seed})
			c := paxos.NewCluster(5, fab, paxos.Config{RetryTicks: 6, RandomBackoff: mode.backoff, Seed: seed})
			c.Nodes[0].Propose(types.Value("L"))
			c.Nodes[4].Propose(types.Value("R"))
			c.RunUntil(c.AllDecided, 5000)
			restarts.Add(c.Nodes[0].Restarts() + c.Nodes[4].Restarts())
			ticks.Add(c.Now())
		}
		fig.Series(mode.name+" restarts(mean)").Add(1, restarts.Mean())
		fig.Series(mode.name+" ticks(p50)").Add(1, float64(ticks.Percentile(50)))
	}
	return Result{ID: "F1", Caption: "Paxos livelock and the randomized-delay remedy", Artifact: fig.String()}
}

// F2FastPaxos reproduces the fast-round and collision slides: latency of
// the fast path versus the classic recovery, and collision probability
// versus concurrent proposers.
func F2FastPaxos() Result {
	fig := metrics.NewFigure("F2 — Fast Paxos: collision rate and latency vs concurrent clients (40 seeds each)", "clients")
	for clients := 1; clients <= 4; clients++ {
		collisions := 0
		lat := metrics.NewHistogram()
		const seeds = 40
		for seed := uint64(0); seed < seeds; seed++ {
			fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 3, Seed: seed})
			rc := runner.New(runner.Config[fastpaxos.Message]{Fabric: fab, Dest: fastpaxos.Dest, Src: fastpaxos.Src, Kind: fastpaxos.Kind})
			cfg := fastpaxos.Config{F: 1, RecoveryTimeout: 8}
			nodes := make([]*fastpaxos.Node, 4)
			for i := range nodes {
				nodes[i] = fastpaxos.NewNode(types.NodeID(i), cfg)
				rc.Add(types.NodeID(i), nodes[i])
			}
			rng := simnet.NewRNG(seed * 31)
			for cl := 0; cl < clients; cl++ {
				v := types.Value(fmt.Sprintf("c%d", cl))
				for _, i := range rng.Perm(4) {
					// Client-side jitter: per-acceptor arrival times vary,
					// so concurrent clients genuinely interleave.
					rc.InjectDelayed(fastpaxos.Message{Kind: fastpaxos.MsgPropose, From: -1, To: types.NodeID(i), Val: v}, 1+rng.Intn(4))
				}
			}
			rc.RunUntil(func() bool { _, ok := nodes[0].Decided(); return ok }, 3000)
			lat.Add(rc.Now())
			if nodes[0].ClassicRounds() > 0 {
				collisions++
			}
		}
		fig.Series("collision-rate").Add(float64(clients), float64(collisions)/seeds)
		fig.Series("decide-ticks(p50)").Add(float64(clients), float64(lat.Percentile(50)))
	}
	return Result{ID: "F2", Caption: "Fast Paxos: 2-delay fast rounds, classic-round fallback on collision", Artifact: fig.String()}
}

// F3FlexibleQuorums reproduces the Flexible Paxos trade-off: replication
// quorum size versus commit latency under stragglers and leader-election
// quorum cost.
func F3FlexibleQuorums() Result {
	fig := metrics.NewFigure("F3 — Flexible Paxos over n=5 with 3 slow acceptors: Q2 vs commit cost", "Q2")
	for q2 := 1; q2 <= 3; q2++ {
		q := quorum.Flexible{N: 5, Q1: 5 - q2 + 1, Q2: q2}
		fab := simnet.NewFabric(simnet.Options{Seed: 42})
		// The election timeout outlasts a round trip on the slow links
		// (80–100 ticks): a slow acceptor's timer must not depend on how
		// the link delays happen to fall.
		c := multipaxos.NewCluster(5, fab, multipaxos.Config{Seed: 42, Quorums: q, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: 100}}, nil)
		lead := c.WaitLeader(1000)
		if lead == nil {
			panic(fmt.Sprintf("F3: no leader under %s", q.Describe()))
		}
		leadID, slow := lead.Leader(), 0
		for i, n := range c.Nodes {
			if n != lead && slow < 3 {
				fab.SetLinkDelay(leadID, types.NodeID(i), 40, 50)
				fab.SetLinkDelay(types.NodeID(i), leadID, 40, 50)
				slow++
			}
		}
		elections := func() (sum int) {
			for _, n := range c.Nodes {
				sum += n.Elections()
			}
			return sum
		}
		electionsBefore := elections()
		lat := metrics.NewHistogram()
		for i := 0; i < 10; i++ {
			before := lead.CommitFrontier()
			start := c.Now()
			lead.Submit(types.Value{byte(i)})
			c.RunUntil(func() bool { return lead.CommitFrontier() > before }, 500)
			lat.Add(c.Now() - start)
		}
		// The figure's claim is about quorum size under one stable leader:
		// an op forwarded to a successor with no slow links measures the
		// handoff, not the quorum.
		if !lead.IsLeader() || elections() != electionsBefore {
			panic(fmt.Sprintf("F3: leadership moved while measuring %s", q.Describe()))
		}
		fig.Series("commit-ticks(p50)").Add(float64(q2), float64(lat.Percentile(50)))
		fig.Series("Q1 (election quorum)").Add(float64(q2), float64(q.Q1))
	}
	return Result{ID: "F3", Caption: "Smaller replication quorums commit past stragglers; election quorums pay", Artifact: fig.String()}
}

// F4Zyzzyva reproduces the case-1/case-2 slides: fast path with all 3f+1
// responsive versus the commit-certificate path with a silent backup,
// against PBFT's three-phase baseline.
func F4Zyzzyva() Result {
	t := metrics.NewTable("F4 — Zyzzyva speculative paths vs PBFT at f=1 (ticks and messages per request)",
		"path", "replicas responsive", "ticks/op", "msgs/op")
	zyz := func(mute bool) (int, int) {
		c := zyzzyva.NewCluster(1, 1, nil, zyzzyva.Config{ClientFastWait: 10})
		if mute {
			c.Intercept(3, func(m zyzzyva.Message) []zyzzyva.Message { return nil })
		}
		cl := c.Clients[0]
		start := c.Now()
		cl.Submit(types.Value("op"))
		var done bool
		c.RunUntil(func() bool {
			done = done || len(cl.Completions()) > 0
			return done
		}, 2000)
		return c.Now() - start, c.Stats().Sent
	}
	tf, mf := zyz(false)
	t.AddRowf("zyzzyva fast (case 1)", "3f+1", tf, mf)
	tc, mc := zyz(true)
	t.AddRowf("zyzzyva certified (case 2)", "2f+1..3f", tc, mc)
	{
		c := pbft.NewCluster(1, nil, pbft.Config{}, nil)
		ticks, msgs := measure(c.Cluster, 0,
			func() { c.Submit(0, req(1)) },
			func() bool { return c.ExecutedEverywhere(1) })
		t.AddRowf("pbft (baseline)", "2f+1", ticks, msgs)
	}
	return Result{ID: "F4", Caption: "Speculative execution: 1-phase fast path, 3-phase certified path", Artifact: t.String()}
}

// F5HotStuffPipeline reproduces the pipeline slide: chained HotStuff
// commit throughput and per-decision messages versus PBFT, and the
// linear-vs-cubic view-change traffic.
func F5HotStuffPipeline() Result {
	t := metrics.NewTable("F5 — HotStuff linearity vs PBFT: per-decision messages and leader-replacement cost",
		"protocol", "n", "msgs/decision", "msgs/decision ÷ n", "leader-change msgs", "lc ÷ n")
	for _, f := range []int{1, 2, 3} {
		n := quorum.Byzantine{F: f}.Size()
		{
			c := hotstuff.NewCluster(f, nil, hotstuff.Config{ViewTimeout: 40}, nil)
			c.Run(80) // bootstrap
			c.ResetStats()
			before := c.Nodes[0].CommittedBlocks()
			c.Run(100)
			blocks := c.Nodes[0].CommittedBlocks() - before
			msgs := 0.0
			if blocks > 0 {
				msgs = float64(c.Stats().Sent) / float64(blocks)
			}
			// Leader replacement in HotStuff IS the normal case: each
			// rotation costs n-1 new-view (or vote) messages carrying
			// one certificate. Measure a timeout-driven rotation.
			vcC := hotstuff.NewCluster(f, nil, hotstuff.Config{ViewTimeout: 10}, nil)
			vcC.Run(40)
			vcC.Crash(types.NodeID(1))
			vcC.ResetStats()
			vcC.Run(15) // one timed-out view rotating past the crash
			lc := vcC.Stats().ByKind["new-view"]
			if lc == 0 {
				lc = n - 1
			}
			t.AddRowf("hotstuff", n, msgs, msgs/float64(n), lc, float64(lc)/float64(n))
		}
		{
			c := pbft.NewCluster(f, nil, pbft.Config{RequestTimeout: 25}, nil)
			c.ResetStats()
			for i := 1; i <= 10; i++ {
				c.Submit(0, req(uint64(i)))
			}
			c.RunUntil(func() bool { return c.Nodes[0].ExecutedFrontier() >= 10 }, 3000)
			msgs := float64(c.Stats().Sent) / 10
			// Force one view change for its cost.
			vcC := pbft.NewCluster(f, nil, pbft.Config{RequestTimeout: 25}, nil)
			vcC.Crash(0)
			vcC.Submit(1, req(99))
			vcC.RunUntil(func() bool { return vcC.ExecutedEverywhere(1, 0) }, 5000)
			vc := vcC.Stats().ByKind["view-change"] + vcC.Stats().ByKind["new-view"]
			t.AddRowf("pbft", n, msgs, msgs/float64(n), vc, float64(vc)/float64(n))
		}
	}
	// Pipelining: the chain commits one block per view in steady state.
	pipe := metrics.NewTable("F5b — HotStuff pipelining: blocks committed per 100 ticks as the view timer shrinks",
		"view timeout (ticks)", "blocks/100 ticks")
	for _, vt := range []int{40, 20, 10} {
		c := hotstuff.NewCluster(1, nil, hotstuff.Config{ViewTimeout: vt}, nil)
		c.Run(2 * vt)
		before := c.Nodes[0].CommittedBlocks()
		c.Run(100)
		pipe.AddRowf(vt, c.Nodes[0].CommittedBlocks()-before)
	}
	return Result{ID: "F5", Caption: "Linear message complexity, linear view change, request pipelining", Artifact: t.String() + "\n" + pipe.String()}
}

// F6XFT reproduces the XFT common-case slide: agreement confined to an
// f+1 synchronous group beats BFT quorums and matches crash-protocol
// cost.
func F6XFT() Result {
	t := metrics.NewTable("F6 — XFT common case vs PBFT and Multi-Paxos (f=1, one request)",
		"protocol", "replicas", "agreement group", "ticks/op", "msgs/op")
	{
		rc := runner.New(runner.Config[xft.Message]{Dest: xft.Dest, Src: xft.Src, Kind: xft.Kind})
		reps := make([]*xft.Replica, 3)
		for i := range reps {
			reps[i] = xft.NewReplica(types.NodeID(i), xft.Config{F: 1})
			rc.Add(types.NodeID(i), reps[i])
		}
		rc.Inject(xft.Message{Kind: xft.MsgRequest, From: -1, To: 0, Req: req(1)})
		start := rc.Now()
		rc.RunUntil(func() bool { return reps[0].ExecutedFrontier() >= 1 }, 1000)
		t.AddRowf("xft", 3, 2, rc.Now()-start, rc.Stats().Sent)
	}
	{
		c := pbft.NewCluster(1, nil, pbft.Config{}, nil)
		ticks, msgs := measure(c.Cluster, 0,
			func() { c.Submit(0, req(1)) },
			func() bool { return c.Nodes[0].ExecutedFrontier() >= 1 })
		t.AddRowf("pbft", 4, 3, ticks, msgs)
	}
	{
		c := paxosClusterSingleOp()
		t.AddRowf("paxos", 3, 2, c[0], c[1])
	}
	return Result{ID: "F6", Caption: "XFT: BFT safety at CFT cost outside anarchy", Artifact: t.String()}
}

func paxosClusterSingleOp() [2]int {
	c := paxos.NewCluster(3, nil, paxos.Config{})
	start := c.Now()
	c.Nodes[0].Propose(types.Value("v"))
	c.RunUntil(func() bool { _, ok := c.Nodes[0].Decided(); return ok }, 1000)
	return [2]int{c.Now() - start, c.Stats().Sent}
}

// F9InteractiveConsistency reproduces the 3f+1 lower-bound walkthrough:
// N=4,f=1 agrees; N=3,f=1 fails.
func F9InteractiveConsistency() Result {
	t := metrics.NewTable("F9 — interactive consistency via OM(m): N vs agreement across byzantine behaviours",
		"N", "f", "rounds", "agreement+validity rate")
	run := func(n, f, trials int) float64 {
		ok := 0
		for seed := uint64(0); seed < uint64(trials); seed++ {
			rng := simnet.NewRNG(seed)
			procs := make([]*icagree.Process, n)
			for i := 0; i < n; i++ {
				procs[i] = &icagree.Process{ID: types.NodeID(i + 1), Value: fmt.Sprintf("v%d", i+1)}
				if i >= n-f {
					procs[i].Lie = icagree.RandomLiar(rng)
				}
			}
			res := icagree.RunOM(f, procs)
			agree, valid := icagree.AgreeOnHonest(procs, res)
			if agree && valid {
				ok++
			}
		}
		return float64(ok) / float64(trials)
	}
	for _, cfg := range []struct{ n, f, trials int }{
		{3, 1, 200}, {4, 1, 200}, {6, 2, 60}, {7, 2, 60},
	} {
		t.AddRowf(cfg.n, cfg.f, cfg.f+1, fmt.Sprintf("%.2f", run(cfg.n, cfg.f, cfg.trials)))
	}
	return Result{ID: "F9", Caption: "Agreement possible iff N ≥ 3f+1 (OM(m), m+1 rounds)", Artifact: t.String()}
}

// F10CnCDecomposition renders the C&C framework mapping for every
// registered protocol.
func F10CnCDecomposition() Result {
	t := metrics.NewTable("F10 — Consensus & Commitment framework decomposition",
		"protocol", "C&C phases", "notes")
	for _, p := range core.All() {
		t.AddRow(p.Name, p.DecompositionString(), p.Notes)
	}
	return Result{ID: "F10", Caption: "Leader Election → Value Discovery → FT Agreement → Decision", Artifact: t.String()}
}
