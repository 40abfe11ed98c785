package experiments

import (
	"fmt"
	"sync"

	"fortyconsensus/internal/cheapbft"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/metrics"
	"fortyconsensus/internal/pos"
	"fortyconsensus/internal/pow"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/workload"
)

func init() {
	register("f7", F7PoWForks)
	register("f8", F8PoSFairness)
	register("f11", F11SpannerStyle2PC)
	register("f12", F12CheapSwitch)
}

// F7PoWForks reproduces the Bitcoin fork and difficulty slides: stale
// block rate versus propagation delay, and difficulty retarget response
// to a hash-power change.
func F7PoWForks() Result {
	fig := metrics.NewFigure("F7a — PoW fork rate vs propagation delay (4 miners to height 40)", "delay-ticks")
	p := pow.DefaultParams()
	// Scale hash power so the block interval (~16 ticks at the initial
	// target: 65536 expected hashes ÷ 4·1024 hashes/tick) is comparable
	// to the propagation delays probed — the regime where forks happen.
	const hashPerTick = 1024

	// Each propagation-delay probe and the retarget run below is its
	// own seeded cluster, so they execute concurrently; the figures are
	// assembled in probe order afterwards, keeping the artifact
	// identical to a sequential run.
	delays := []int{1, 4, 10, 20}
	type forkProbe struct {
		stale  int
		height uint64
	}
	probes := make([]forkProbe, len(delays))
	var wg sync.WaitGroup
	for i, delay := range delays {
		wg.Add(1)
		go func(i, delay int) {
			defer wg.Done()
			fab := simnet.NewFabric(simnet.Options{MinDelay: delay, MaxDelay: delay + 2, Seed: 7})
			rc := runner.New(runner.Config[pow.Message]{Fabric: fab, Dest: pow.Dest, Src: pow.Src, Kind: pow.Kind})
			peers := []types.NodeID{0, 1, 2, 3}
			miners := make([]*pow.Miner, 4)
			for j := range miners {
				miners[j] = pow.NewMiner(types.NodeID(j), pow.MinerConfig{
					Params: p, Peers: peers, HashPerTick: hashPerTick, Seed: uint64(j) * 991,
				})
				rc.Add(types.NodeID(j), miners[j])
			}
			rc.RunUntil(func() bool { return miners[0].Chain().Height() >= 40 }, 120000)
			for _, m := range miners {
				probes[i].stale += m.Chain().StaleBlocks()
			}
			_, h, _ := miners[0].Chain().Tip()
			probes[i].height = h
		}(i, delay)
	}

	// F7b: retarget convergence — the network starts at equilibrium
	// (one miner whose power yields ≈ the 20-tick target spacing), a
	// second equal miner joins after interval 2 (hash power doubles,
	// spacing halves), and the retarget rule tightens difficulty until
	// spacing returns toward target.
	const retargetIntervals = 6
	spacings := make([]float64, retargetIntervals)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// 65536 expected hashes per block ÷ 20-tick target ≈ 3277/tick.
		const equilibrium = 3277
		rc := runner.New(runner.Config[pow.Message]{Dest: pow.Dest, Src: pow.Src, Kind: pow.Kind})
		m := pow.NewMiner(0, pow.MinerConfig{Params: p, Peers: []types.NodeID{0, 1}, HashPerTick: equilibrium, Seed: 5})
		rc.Add(0, m)
		interval := p.RetargetInterval
		lastHeight, lastTick := uint64(0), 0
		boosted := false
		for iv := 1; iv <= retargetIntervals; iv++ {
			target := uint64(iv * interval)
			rc.RunUntil(func() bool { return m.Chain().Height() >= target }, 400000)
			h := m.Chain().Height()
			spacings[iv-1] = float64(rc.Now()-lastTick) / float64(h-lastHeight)
			lastHeight, lastTick = h, rc.Now()
			if iv == 2 && !boosted {
				boosted = true
				m2 := pow.NewMiner(1, pow.MinerConfig{Params: p, Peers: []types.NodeID{0, 1}, HashPerTick: equilibrium, Seed: 17})
				// The new miner adopts the existing chain before mining.
				for _, id := range m.Chain().BestChain()[1:] {
					b, _ := m.Chain().Block(id)
					m2.Chain().Accept(b)
				}
				rc.Add(1, m2)
			}
		}
	}()
	wg.Wait()

	for i, delay := range delays {
		fig.Series("stale-blocks(total)").Add(float64(delay), float64(probes[i].stale))
		fig.Series("best-height").Add(float64(delay), float64(probes[i].height))
	}
	fig2 := metrics.NewFigure("F7b — difficulty retarget: avg block spacing per interval (hash power doubles after interval 2)", "interval")
	for iv := 1; iv <= retargetIntervals; iv++ {
		fig2.Series("avg-spacing(ticks)").Add(float64(iv), spacings[iv-1])
		fig2.Series("target").Add(float64(iv), float64(pow.TargetSpacing))
	}
	return Result{ID: "F7", Caption: "PoW forks and difficulty adjustment", Artifact: fig.String() + "\n" + fig2.String()}
}

// F8PoSFairness reproduces the PoS slide: block share versus stake share
// under randomized and coin-age selection.
func F8PoSFairness() Result {
	t := metrics.NewTable("F8 — PoS block share vs stake share (5000 slots, stakes 60/30/10)",
		"selection", "validator", "stake share", "block share")
	stakes := map[types.NodeID]uint64{0: 600, 1: 300, 2: 100}
	for _, sel := range []pos.Selection{pos.Randomized, pos.CoinAge} {
		l := pos.NewLedger(pos.Params{Selection: sel, Seed: 2024}, stakes)
		const slots = 5000
		for i := 0; i < slots; i++ {
			l.Advance(nil)
		}
		wins := l.Wins()
		for _, id := range []types.NodeID{0, 1, 2} {
			t.AddRow(sel.String(), id.String(),
				fmt.Sprintf("%.3f", float64(stakes[id])/1000),
				fmt.Sprintf("%.3f", float64(wins[id])/slots))
		}
	}
	return Result{ID: "F8", Caption: "Stake-proportional selection vs coin-age smoothing", Artifact: t.String()}
}

// F11SpannerStyle2PC reproduces the Spanner slide: bank transfers as
// transactions through shard.Service (2PC over Raft-replicated shards),
// commit latency versus shard spread. A transfer within one shard is
// one TxApply entry; one across two is a TxPrepare on each, the TxDecide
// at the home shard and a TxCommit on each.
func F11SpannerStyle2PC() Result {
	t := metrics.NewTable("F11 — 2PC over Raft shards (bank transfers, 3 replicas per shard)",
		"shards touched", "phase ops replicated", "ticks/txn (p50)")
	for _, spread := range []int{1, 2} {
		svc := shard.NewService(shard.Config{Shards: 2, Seed: 77})
		svc.Run(60) // leader elections
		// Two accounts the partition map places on the shards touched.
		var accts []string
		for a := 0; len(accts) < 2; a++ {
			key := workload.AccountKey(a)
			if want := len(accts) % spread; svc.Map().Shard(key) == want {
				accts = append(accts, key)
			}
		}
		lat := metrics.NewHistogram()
		for txn := 0; txn < 10; txn++ {
			tx := svc.Submit([]kvstore.Command{kvstore.Incr(accts[0], -10), kvstore.Incr(accts[1], 10)})
			ticks := 0
			for done, _ := svc.TxDone(tx); !done && ticks < 2000; done, _ = svc.TxDone(tx) {
				svc.Step()
				ticks++
			}
			lat.Add(ticks)
		}
		t.AddRowf(spread, 1+4*(spread-1), lat.Percentile(50))
	}
	return Result{ID: "F11", Caption: "Cross-shard transactions pay 2PC phases × replication rounds", Artifact: t.String()}
}

// F12CheapSwitch reproduces the CheapBFT transition slides: steady-state
// cost in CheapTiny, the panic→switch latency, and MinBFT-mode cost.
func F12CheapSwitch() Result {
	t := metrics.NewTable("F12 — CheapBFT protocol switch (f=1, 3 replicas)",
		"phase", "active replicas", "msgs/op or ticks")
	newc := func() *cheapbft.Cluster {
		return cheapbft.NewCluster(1, nil, cheapbft.Config{RequestTimeout: 25}, nil)
	}
	// Steady state CheapTiny.
	{
		c := newc()
		for i := 1; i <= 10; i++ {
			c.Submit(0, req(uint64(i)))
		}
		c.RunUntil(func() bool { return c.Nodes[0].ExecutedFrontier() >= 10 }, 3000)
		t.AddRowf("cheaptiny msgs/op", 2, float64(c.Stats().Sent)/10)
	}
	// Switch latency and MinBFT-mode cost.
	{
		c := newc()
		c.Crash(1) // active backup
		c.Submit(0, req(1))
		start := c.Now()
		c.RunUntil(func() bool {
			return c.Nodes[0].Mode() == cheapbft.ModeMinBFT && c.Nodes[0].ExecutedFrontier() >= 1
		}, 6000)
		t.AddRowf("panic→minbft switch ticks", 3, c.Now()-start)
		c.ResetStats()
		for i := 2; i <= 11; i++ {
			c.Submit(0, req(uint64(i)))
		}
		c.RunUntil(func() bool { return c.Nodes[0].ExecutedFrontier() >= 11 }, 3000)
		t.AddRowf("minbft-mode msgs/op", 3, float64(c.Stats().Sent)/10)
	}
	return Result{ID: "F12", Caption: "CheapTiny → CheapSwitch → MinBFT and back", Artifact: t.String()}
}
