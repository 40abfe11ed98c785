package pow

import (
	"math/big"
	"testing"
	"testing/quick"

	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

func TestCompactRoundTrip(t *testing.T) {
	for _, bits := range []uint32{0x1d00ffff, 0x1f00ffff, 0x1b0404cb, 0x172e6117} {
		target := CompactToTarget(bits)
		back := TargetToCompact(target)
		if CompactToTarget(back).Cmp(target) != 0 {
			t.Fatalf("bits %08x: target %v -> %08x -> %v", bits, target, back, CompactToTarget(back))
		}
	}
}

func TestCompactRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		// Normalize into a plausible compact value: exponent 1..32.
		exp := raw>>24%30 + 3
		mant := raw & 0x007FFFFF
		if mant == 0 {
			return true
		}
		bits := exp<<24 | mant
		target := CompactToTarget(bits)
		if target.Sign() <= 0 {
			return true
		}
		return CompactToTarget(TargetToCompact(target)).Cmp(target) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkMonotonic(t *testing.T) {
	easy := Work(0x1f00ffff)
	hard := Work(0x1d00ffff)
	if hard.Cmp(easy) <= 0 {
		t.Fatal("harder target should represent more work")
	}
}

func TestValidateBlockRules(t *testing.T) {
	g := GenesisBlock()
	if err := ValidateBlock(g); err != nil {
		// Genesis may not meet PoW (no nonce grinding); mine it quickly.
		target := CompactToTarget(initialBits)
		for !HashMeetsTarget(g.Hash(), target) {
			g.Header.Nonce++
		}
	}
	if err := ValidateBlock(g); err != nil {
		t.Fatalf("mined genesis invalid: %v", err)
	}
	// Tampered merkle root fails.
	bad := *g
	bad.Header.MerkleRoot[0] ^= 1
	if err := ValidateBlock(&bad); err == nil {
		t.Fatal("merkle tamper accepted")
	}
	// Empty block fails.
	empty := &Block{Header: g.Header}
	if err := ValidateBlock(empty); err == nil {
		t.Fatal("coinbase-less block accepted")
	}
}

// mineOn grinds a valid block extending the given chain's tip.
func mineOn(t *testing.T, c *Chain, miner int, now uint64) *Block {
	t.Helper()
	tip, height, _ := c.Tip()
	bits := c.NextBits()
	b := &Block{
		Header: Header{Version: 2, PrevHash: tip, Timestamp: now, Bits: bits},
		Txs:    []Tx{CoinbaseFor(miner, height+1, Reward(height+1))},
	}
	b.Header.MerkleRoot = b.MerkleRoot()
	target := CompactToTarget(bits)
	for !HashMeetsTarget(b.Hash(), target) {
		b.Header.Nonce++
	}
	return b
}

func TestChainGrowth(t *testing.T) {
	c := NewChain(DefaultParams())
	for i := 0; i < 5; i++ {
		b := mineOn(t, c, 0, uint64(i*20))
		added, tipChanged, err := c.Accept(b)
		if err != nil || !added || !tipChanged {
			t.Fatalf("block %d: added=%v tip=%v err=%v", i, added, tipChanged, err)
		}
	}
	if c.Height() != 5 {
		t.Fatalf("height = %d", c.Height())
	}
	if len(c.BestChain()) != 6 {
		t.Fatalf("best chain length = %d", len(c.BestChain()))
	}
}

func TestDuplicateAndOrphanHandling(t *testing.T) {
	c := NewChain(DefaultParams())
	b1 := mineOn(t, c, 0, 20)
	if added, _, _ := c.Accept(b1); !added {
		t.Fatal("b1 rejected")
	}
	if added, _, _ := c.Accept(b1); added {
		t.Fatal("duplicate accepted twice")
	}
	// Build b2 on b1, but deliver b3 (child of b2) first: orphan until
	// b2 arrives.
	b2 := mineOn(t, c, 0, 40)
	c2 := NewChain(DefaultParams())
	c2.Accept(b1)
	c2.Accept(b2)
	b3 := mineOn(t, c2, 0, 60)

	cFresh := NewChain(DefaultParams())
	cFresh.Accept(b1)
	if added, _, _ := cFresh.Accept(b3); added {
		t.Fatal("orphan connected without parent")
	}
	added, tipChanged, err := cFresh.Accept(b2)
	if err != nil || !added || !tipChanged {
		t.Fatalf("b2: %v/%v/%v", added, tipChanged, err)
	}
	if cFresh.Height() != 3 {
		t.Fatalf("orphan did not auto-connect: height %d", cFresh.Height())
	}
}

func TestForkChoiceMostWork(t *testing.T) {
	// Two competing branches: the longer one wins; the shorter becomes
	// stale and the switch counts as a reorg.
	c := NewChain(DefaultParams())
	b1 := mineOn(t, c, 0, 20)
	c.Accept(b1)

	// Branch A: one block on b1.
	cA := NewChain(DefaultParams())
	cA.Accept(b1)
	a2 := mineOn(t, cA, 1, 40)

	// Branch B: two blocks on b1.
	cB := NewChain(DefaultParams())
	cB.Accept(b1)
	bb2 := mineOn(t, cB, 2, 41)
	cB.Accept(bb2)
	bb3 := mineOn(t, cB, 2, 60)

	c.Accept(a2) // tip = a2
	if tip, _, _ := c.Tip(); tip != a2.Hash() {
		t.Fatal("tip should be a2")
	}
	c.Accept(bb2) // same height as a2: no switch (first seen wins)
	if tip, _, _ := c.Tip(); tip != a2.Hash() {
		t.Fatal("equal-work branch displaced the tip")
	}
	c.Accept(bb3) // branch B now has more work: reorg
	if tip, _, _ := c.Tip(); tip != bb3.Hash() {
		t.Fatal("most-work branch not adopted")
	}
	reorgs, deepest := c.Reorgs()
	if reorgs != 1 || deepest != 1 {
		t.Fatalf("reorgs=%d deepest=%d", reorgs, deepest)
	}
	if c.StaleBlocks() == 0 {
		t.Fatal("stale branch not counted")
	}
}

func TestDifficultyRetargetsUp(t *testing.T) {
	// Mine blocks twice as fast as the target spacing for one interval:
	// the next target must shrink (bits value represents a smaller
	// target ⇒ more work).
	p := DefaultParams()
	c := NewChain(p)
	fast := uint64(TargetSpacing / 2)
	for i := uint64(1); i <= uint64(p.RetargetInterval)-1; i++ {
		b := mineOn(t, c, 0, i*fast)
		if _, _, err := c.Accept(b); err != nil {
			t.Fatal(err)
		}
	}
	before := CompactToTarget(initialBits)
	after := CompactToTarget(c.NextBits())
	if after.Cmp(before) >= 0 {
		t.Fatalf("target did not shrink after fast interval: %v -> %v", before, after)
	}
	// And the ratio is about half (clamped arithmetic aside).
	ratio := new(big.Int).Div(new(big.Int).Mul(after, big.NewInt(100)), before)
	if ratio.Int64() < 30 || ratio.Int64() > 70 {
		t.Fatalf("retarget ratio %d%%, want ≈50%%", ratio.Int64())
	}
}

func TestDifficultyRetargetsDown(t *testing.T) {
	// The target can never exceed the network maximum (initialBits), so
	// to observe easing we first tighten difficulty with a fast interval
	// and then mine a slow interval: the target must grow back (while
	// staying at or below the maximum).
	p := DefaultParams()
	c := NewChain(p)
	now := uint64(0)
	fast := uint64(TargetSpacing / 4)
	for i := 1; i < p.RetargetInterval; i++ {
		now += fast
		b := mineOn(t, c, 0, now)
		if _, _, err := c.Accept(b); err != nil {
			t.Fatal(err)
		}
	}
	tightened := CompactToTarget(c.NextBits())
	if tightened.Cmp(CompactToTarget(initialBits)) >= 0 {
		t.Fatal("setup: fast interval did not tighten difficulty")
	}
	slow := uint64(TargetSpacing * 4)
	for i := 0; i < p.RetargetInterval; i++ {
		now += slow
		b := mineOn(t, c, 0, now)
		if _, _, err := c.Accept(b); err != nil {
			t.Fatal(err)
		}
	}
	eased := CompactToTarget(c.NextBits())
	if eased.Cmp(tightened) <= 0 {
		t.Fatalf("target did not grow after slow interval: %v -> %v", tightened, eased)
	}
	if eased.Cmp(CompactToTarget(initialBits)) > 0 {
		t.Fatal("target exceeded the network maximum")
	}
}

func TestRewardHalving(t *testing.T) {
	if Reward(0) != 50 || Reward(63) != 50 {
		t.Fatal("pre-halving reward wrong")
	}
	if Reward(64) != 25 || Reward(128) != 12 {
		t.Fatalf("halving schedule wrong: %d, %d", Reward(64), Reward(128))
	}
}

func TestWrongBitsRejected(t *testing.T) {
	c := NewChain(DefaultParams())
	b := mineOn(t, c, 0, 20)
	b.Header.Bits = 0x1f00fffe // not what the chain demands
	// Re-grind for the modified header so PoW itself passes.
	target := CompactToTarget(b.Header.Bits)
	for !HashMeetsTarget(b.Hash(), target) {
		b.Header.Nonce++
	}
	if _, _, err := c.Accept(b); err == nil {
		t.Fatal("wrong-difficulty block accepted")
	}
}

// --- networked miner tests ---

func newNetwork(n int, fabric *simnet.Fabric, p Params, power []int) (*runner.Cluster[Message], []*Miner) {
	rc := runner.New(runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind})
	peers := make([]types.NodeID, n)
	for i := range peers {
		peers[i] = types.NodeID(i)
	}
	miners := make([]*Miner, n)
	for i := 0; i < n; i++ {
		hp := 16
		if power != nil {
			hp = power[i]
		}
		miners[i] = NewMiner(types.NodeID(i), MinerConfig{
			Params: p, Peers: peers, HashPerTick: hp, Seed: uint64(i) * 7779,
		})
		rc.Add(types.NodeID(i), miners[i])
	}
	return rc, miners
}

func TestMinersConverge(t *testing.T) {
	p := DefaultParams()
	rc, miners := newNetwork(4, simnet.NewFabric(simnet.Options{Seed: 1}), p, nil)
	rc.RunUntil(func() bool { return miners[0].Chain().Height() >= 10 }, 20000)
	rc.Run(50) // let final blocks propagate
	for _, m := range miners[1:] {
		cp := CommonPrefix(miners[0].Chain(), m.Chain())
		minH := int(miners[0].Chain().Height())
		if int(m.Chain().Height()) < minH {
			minH = int(m.Chain().Height())
		}
		// All but possibly the unsettled tail agree.
		if cp < minH-1 {
			t.Fatalf("chains diverge: common prefix %d, heights %d/%d",
				cp, miners[0].Chain().Height(), m.Chain().Height())
		}
	}
}

func TestTransactionsConfirm(t *testing.T) {
	p := DefaultParams()
	rc, miners := newNetwork(3, simnet.NewFabric(simnet.Options{Seed: 2}), p, nil)
	miners[0].SubmitTx(Tx("pay alice 10"))
	rc.RunUntil(func() bool {
		for _, id := range miners[1].Chain().BestChain() {
			b, _ := miners[1].Chain().Block(id)
			for _, tx := range b.Txs {
				if string(tx) == "pay alice 10" {
					return true
				}
			}
		}
		return false
	}, 20000)
	found := false
	for _, id := range miners[1].Chain().BestChain() {
		b, _ := miners[1].Chain().Block(id)
		for _, tx := range b.Txs {
			if string(tx) == "pay alice 10" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("transaction never confirmed on a remote miner's chain")
	}
}

func TestForkRateRisesWithPropagationDelay(t *testing.T) {
	p := DefaultParams()
	stale := func(delay int) int {
		fab := simnet.NewFabric(simnet.Options{MinDelay: delay, MaxDelay: delay + 2, Seed: 7})
		rc, miners := newNetwork(4, fab, p, nil)
		rc.RunUntil(func() bool { return miners[0].Chain().Height() >= 25 }, 60000)
		total := 0
		for _, m := range miners {
			total += m.Chain().StaleBlocks()
		}
		return total
	}
	fast, slow := stale(1), stale(30)
	if slow <= fast {
		t.Fatalf("fork rate did not rise with delay: fast=%d slow=%d", fast, slow)
	}
}

func TestHashPowerProportionalRewards(t *testing.T) {
	// A miner with 3× hash power should win roughly 3× the blocks.
	p := DefaultParams()
	rc, miners := newNetwork(2, simnet.NewFabric(simnet.Options{Seed: 3}), p, []int{48, 16})
	rc.RunUntil(func() bool { return miners[0].Chain().Height() >= 40 }, 80000)
	shares := miners[0].RewardShare()
	big, small := shares[0], shares[1]
	if small == 0 {
		small = 1
	}
	ratio := float64(big) / float64(small)
	if ratio < 1.6 || ratio > 6.5 {
		t.Fatalf("reward ratio %.2f for 3× power (blocks %d vs %d)", ratio, big, small)
	}
}
