package pow

import (
	"testing"

	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// selfishShare runs one attacker against honest miners and returns the
// attacker's share of best-chain rewards alongside its hash share.
func selfishShare(t *testing.T, attackerPower, honestPower, honestCount, height int, seed uint64) (revShare, hashShare float64) {
	t.Helper()
	p := DefaultParams()
	p.RetargetInterval = 1 << 30 // freeze difficulty: isolate the strategy
	n := honestCount + 1
	peers := make([]types.NodeID, n)
	for i := range peers {
		peers[i] = types.NodeID(i)
	}
	fab := simnet.NewFabric(simnet.Options{Seed: seed})
	rc := runner.New(runner.Config[Message]{Fabric: fab, Dest: Dest, Src: Src, Kind: Kind})
	honest := make([]*Miner, honestCount)
	for i := 0; i < honestCount; i++ {
		honest[i] = NewMiner(types.NodeID(i), MinerConfig{
			Params: p, Peers: peers, HashPerTick: honestPower, Seed: seed + uint64(i)*13,
		})
		rc.Add(types.NodeID(i), honest[i])
	}
	attacker := NewSelfishMiner(types.NodeID(honestCount), MinerConfig{
		Params: p, Peers: peers, HashPerTick: attackerPower, Seed: seed + 999,
	})
	rc.Add(types.NodeID(honestCount), attacker)

	rc.RunUntil(func() bool { return honest[0].Chain().Height() >= uint64(height) }, 2_000_000)
	rc.Run(20)

	shares := honest[0].RewardShare()
	total := 0
	for _, v := range shares {
		total += v
	}
	if total == 0 {
		t.Fatal("no blocks on the public chain")
	}
	revShare = float64(shares[honestCount]) / float64(total)
	hashShare = float64(attackerPower) / float64(attackerPower+honestCount*honestPower)
	return revShare, hashShare
}

func TestSelfishMiningAmplifiesLargeAttacker(t *testing.T) {
	// ~44% of hash power: selfish mining should yield MORE than the
	// fair (honest-strategy) share.
	rev, hash := selfishShare(t, 400, 128, 4, 60, 11)
	if rev <= hash {
		t.Fatalf("large attacker not amplified: revenue %.3f ≤ hash %.3f", rev, hash)
	}
}

func TestSelfishMiningWastesHonestWork(t *testing.T) {
	// The attack's signature: honest blocks get orphaned, raising the
	// public chain's stale rate versus an all-honest network.
	staleWith := func(selfish bool) int {
		p := DefaultParams()
		p.RetargetInterval = 1 << 30
		peers := []types.NodeID{0, 1, 2}
		fab := simnet.NewFabric(simnet.Options{Seed: 5})
		rc := runner.New(runner.Config[Message]{Fabric: fab, Dest: Dest, Src: Src, Kind: Kind})
		h1 := NewMiner(0, MinerConfig{Params: p, Peers: peers, HashPerTick: 128, Seed: 5})
		h2 := NewMiner(1, MinerConfig{Params: p, Peers: peers, HashPerTick: 128, Seed: 18})
		rc.Add(0, h1)
		rc.Add(1, h2)
		if selfish {
			rc.Add(2, NewSelfishMiner(2, MinerConfig{Params: p, Peers: peers, HashPerTick: 200, Seed: 31}))
		} else {
			rc.Add(2, NewMiner(2, MinerConfig{Params: p, Peers: peers, HashPerTick: 200, Seed: 31}))
		}
		rc.RunUntil(func() bool { return h1.Chain().Height() >= 50 }, 2_000_000)
		return h1.Chain().StaleBlocks()
	}
	honestStale := staleWith(false)
	attackStale := staleWith(true)
	if attackStale <= honestStale {
		t.Fatalf("selfish mining did not raise the orphan rate: %d vs %d", attackStale, honestStale)
	}
}

func TestSelfishMinerAdoptsWhenBehind(t *testing.T) {
	// With negligible hash power the attacker mostly follows the honest
	// chain; its public chain must converge with the honest tip.
	p := DefaultParams()
	p.RetargetInterval = 1 << 30
	peers := []types.NodeID{0, 1}
	rc := runner.New(runner.Config[Message]{Dest: Dest, Src: Src, Kind: Kind})
	h := NewMiner(0, MinerConfig{Params: p, Peers: peers, HashPerTick: 512, Seed: 2})
	a := NewSelfishMiner(1, MinerConfig{Params: p, Peers: peers, HashPerTick: 8, Seed: 3})
	rc.Add(0, h)
	rc.Add(1, a)
	rc.RunUntil(func() bool { return h.Chain().Height() >= 20 }, 2_000_000)
	rc.Run(10)
	cp := CommonPrefix(h.Chain(), a.pub)
	if cp < int(h.Chain().Height())-2 {
		t.Fatalf("weak attacker diverged: common prefix %d of %d", cp, h.Chain().Height())
	}
}
