package experiments

import (
	"fmt"
	"sync"

	"fortyconsensus/internal/cheapbft"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/metrics"
	"fortyconsensus/internal/pos"
	"fortyconsensus/internal/pow"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
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
		fig2.Series("target").Add(float64(iv), float64(p.TargetSpacing))
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

// shardedBank drives the Spanner-slide architecture: Raft-replicated
// shards with 2PC across them.
type shardedBank struct {
	shards   []*raft.Cluster
	leaders  []*raft.Node
	balances []*kvstore.Store // shard-0 replica view, for audit
}

func newShardedBank(shardCount, accounts int, seed uint64) *shardedBank {
	sb := &shardedBank{}
	for s := 0; s < shardCount; s++ {
		c := raft.NewCluster(3, nil, raft.Config{Seed: seed + uint64(s)*101}, kvSM)
		lead := c.WaitLeader(1000)
		for a := 0; a < accounts; a++ {
			if a%shardCount == s {
				lead.Submit(smr.EncodeRequest(types.Request{
					Client: 999, SeqNo: uint64(a + 1),
					Op: kvstore.Put(workload.AccountKey(a), []byte("1000")).Encode(),
				}))
			}
		}
		c.RunPumped(200)
		sb.shards = append(sb.shards, c)
		sb.leaders = append(sb.leaders, lead)
	}
	return sb
}

// step advances every shard one tick.
func (sb *shardedBank) step() {
	for _, c := range sb.shards {
		c.Step()
		c.Pump()
	}
}

// replicate submits an op to a shard's Raft group and runs all shards
// until it commits, returning elapsed ticks.
func (sb *shardedBank) replicate(shard int, seqno uint64, cmd kvstore.Command) int {
	lead := sb.leaders[shard]
	before := lead.CommitFrontier()
	lead.Submit(smr.EncodeRequest(types.Request{Client: 5, SeqNo: seqno, Op: cmd.Encode()}))
	ticks := 0
	for lead.CommitFrontier() <= before && ticks < 2000 {
		sb.step()
		ticks++
	}
	return ticks
}

// F11SpannerStyle2PC reproduces the Spanner slide: transactions via 2PC
// across Paxos/Raft-replicated shards — commit latency versus shard
// spread.
func F11SpannerStyle2PC() Result {
	t := metrics.NewTable("F11 — 2PC over Raft shards (bank transfers, 3 replicas per shard)",
		"shards touched", "phase ops replicated", "ticks/txn (p50)")
	seqno := uint64(0)
	for _, spread := range []int{1, 2} {
		sb := newShardedBank(2, 8, 77)
		lat := metrics.NewHistogram()
		for txn := 0; txn < 10; txn++ {
			ticks := 0
			// Phase 1 (prepare): replicate a lock/debit-check record in
			// every touched shard's Raft log.
			for s := 0; s < spread; s++ {
				seqno++
				ticks += sb.replicate(s, seqno, kvstore.Put(fmt.Sprintf("lock-%d-%d", txn, s), []byte("prep")))
			}
			// Phase 2 (commit): replicate the commit record.
			for s := 0; s < spread; s++ {
				seqno++
				ticks += sb.replicate(s, seqno, kvstore.Incr(workload.AccountKey(s), -10))
			}
			lat.Add(ticks)
		}
		t.AddRowf(spread, 2*spread, lat.Percentile(50))
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
