package experiments

import (
	"sync"

	"fortyconsensus/internal/hotstuff"
	"fortyconsensus/internal/metrics"
	"fortyconsensus/internal/minbft"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/pbft"
	"fortyconsensus/internal/pow"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/workload"
)

func init() {
	register("x1", X1SelfishMining)
	register("x2", X2SMRThroughput)
}

// X1SelfishMining extends F7 with the attack the paper lists under
// "Other Issues": selfish mining revenue share versus hash share.
func X1SelfishMining() Result {
	t := metrics.NewTable("X1 — selfish mining (Eyal–Sirer strategy): revenue share vs hash share",
		"attacker hash share", "revenue share", "amplified?")
	p := pow.DefaultParams()
	p.RetargetInterval = 1 << 30 // freeze difficulty

	// The three attacker budgets are independent seeded clusters; run
	// them concurrently and render rows in budget order so the table is
	// identical to a sequential run.
	atts := []int{64, 200, 400}
	type attackRun struct {
		hashShare, revShare float64
	}
	runs := make([]attackRun, len(atts))
	var wg sync.WaitGroup
	for i, att := range atts {
		wg.Add(1)
		go func(i, att int) {
			defer wg.Done()
			const honestEach, honestCount = 128, 4
			peers := make([]types.NodeID, honestCount+1)
			for j := range peers {
				peers[j] = types.NodeID(j)
			}
			fab := simnet.NewFabric(simnet.Options{Seed: 11})
			rc := runner.New(runner.Config[pow.Message]{Fabric: fab, Dest: pow.Dest, Src: pow.Src, Kind: pow.Kind})
			honest := make([]*pow.Miner, honestCount)
			for j := 0; j < honestCount; j++ {
				honest[j] = pow.NewMiner(types.NodeID(j), pow.MinerConfig{
					Params: p, Peers: peers, HashPerTick: honestEach, Seed: 11 + uint64(j)*13,
				})
				rc.Add(types.NodeID(j), honest[j])
			}
			rc.Add(types.NodeID(honestCount), pow.NewSelfishMiner(types.NodeID(honestCount), pow.MinerConfig{
				Params: p, Peers: peers, HashPerTick: att, Seed: 999,
			}))
			rc.RunUntil(func() bool { return honest[0].Chain().Height() >= 60 }, 2_000_000)
			rc.Run(20)
			shares := honest[0].RewardShare()
			total := 0
			for _, v := range shares {
				total += v
			}
			runs[i].hashShare = float64(att) / float64(att+honestCount*honestEach)
			if total > 0 {
				runs[i].revShare = float64(shares[honestCount]) / float64(total)
			}
		}(i, att)
	}
	wg.Wait()
	for _, r := range runs {
		amp := "no"
		if r.revShare > r.hashShare {
			amp = "YES"
		}
		t.AddRowf(r.hashShare, r.revShare, amp)
	}
	return Result{ID: "X1", Caption: "Withholding pays above ~1/3 of the hash rate", Artifact: t.String()}
}

// X2SMRThroughput runs the same Zipf-skewed KV workload through every
// SMR protocol and reports committed operations per 1000 ticks plus
// messages per op — the cross-protocol cost picture the tutorial's
// taxonomy implies.
func X2SMRThroughput() Result {
	t := metrics.NewTable("X2 — replicated KV under a Zipf workload (200 ops, f=1): throughput and cost",
		"protocol", "replicas", "ops committed", "ticks", "msgs/op")

	const ops = 200
	newReqs := func() []types.Value {
		rng := simnet.NewRNG(77)
		gen := workload.NewKV(1, workload.NewZipf(64, 0.99, rng.Fork()), 0.5, 16, rng)
		out := make([]types.Value, ops)
		for i := range out {
			out[i] = smr.EncodeRequest(gen.Next())
		}
		return out
	}

	{
		c := multipaxos.NewCluster(3, nil, multipaxos.Config{Seed: 1}, kvSM)
		lead := c.WaitLeader(1000)
		c.ResetStats()
		start := c.Now()
		for _, r := range newReqs() {
			lead.Submit(r)
		}
		c.RunUntil(func() bool { return lead.CommitFrontier() >= ops }, 20000)
		elapsed := c.Now() - start
		t.AddRowf("multipaxos", 3, int(lead.CommitFrontier()), elapsed, float64(c.Stats().Sent)/ops)
	}
	{
		c := raft.NewCluster(3, nil, raft.Config{Seed: 2}, kvSM)
		lead := c.WaitLeader(1000)
		c.Run(20)
		c.ResetStats()
		start := c.Now()
		for _, r := range newReqs() {
			lead.Submit(r)
		}
		c.RunUntil(func() bool { return lead.CommitFrontier() >= ops }, 20000)
		elapsed := c.Now() - start
		t.AddRowf("raft", 3, int(lead.CommitFrontier()), elapsed, float64(c.Stats().Sent)/ops)
	}
	{
		c := pbft.NewCluster(1, nil, pbft.Config{CheckpointEvery: 64}, kvSM)
		c.ResetStats()
		start := c.Now()
		for _, r := range newReqs() {
			c.Submit(0, r)
		}
		c.RunUntil(func() bool { return c.Nodes[0].ExecutedFrontier() >= ops }, 20000)
		elapsed := c.Now() - start
		t.AddRowf("pbft", 4, int(c.Nodes[0].ExecutedFrontier()), elapsed, float64(c.Stats().Sent)/ops)
	}
	{
		c := minbft.NewCluster(1, nil, minbft.Config{}, kvSM)
		c.ResetStats()
		start := c.Now()
		for _, r := range newReqs() {
			c.Submit(0, r)
		}
		c.RunUntil(func() bool { return c.Nodes[0].ExecutedFrontier() >= ops }, 20000)
		elapsed := c.Now() - start
		t.AddRowf("minbft", 3, int(c.Nodes[0].ExecutedFrontier()), elapsed, float64(c.Stats().Sent)/ops)
	}
	{
		c := hotstuff.NewCluster(1, nil, hotstuff.Config{ViewTimeout: 20, MaxBatch: 16}, kvSM)
		c.Run(50)
		c.ResetStats()
		start := c.Now()
		for _, r := range newReqs() {
			c.Submit(r)
		}
		committed := func() int {
			n := 0
			for _, d := range c.Execs()[0].Applied() {
				if _, err := smr.DecodeRequest(d.Val); err == nil {
					n++
				}
			}
			return n
		}
		c.RunUntil(func() bool {
			c.Pump()
			return committed() >= ops
		}, 20000)
		elapsed := c.Now() - start
		t.AddRowf("hotstuff", 4, committed(), elapsed, float64(c.Stats().Sent)/ops)
	}
	return Result{ID: "X2", Caption: "One workload, every SMR protocol", Artifact: t.String()}
}
