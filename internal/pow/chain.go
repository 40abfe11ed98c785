package pow

import (
	"fmt"
	"math/big"

	"fortyconsensus/internal/chaincrypto"
)

// chainNode is a block with its chain metadata.
type chainNode struct {
	block  *Block
	height uint64
	work   *big.Int // cumulative work including this block
}

// Chain is a block tree with most-work fork choice, reorg tracking, and
// difficulty retargeting.
type Chain struct {
	params  Params
	nodes   map[chaincrypto.Digest]*chainNode
	orphans map[chaincrypto.Digest][]*Block // parent hash → waiting children
	tip     *chainNode
	genesis chaincrypto.Digest

	// Metrics.
	staleBlocks  int // valid blocks that lost fork resolution
	reorgs       int
	deepestReorg int
}

// NewChain builds a chain holding only genesis.
func NewChain(params Params) *Chain {
	g := GenesisBlock()
	gid := g.Hash()
	node := &chainNode{block: g, height: 0, work: Work(g.Header.Bits)}
	return &Chain{
		params:  params,
		nodes:   map[chaincrypto.Digest]*chainNode{gid: node},
		orphans: make(map[chaincrypto.Digest][]*Block),
		tip:     node,
		genesis: gid,
	}
}

// Tip returns the best block's hash, height and header bits.
func (c *Chain) Tip() (chaincrypto.Digest, uint64, uint32) {
	return c.tip.block.Hash(), c.tip.height, c.tip.block.Header.Bits
}

// Height returns the best-chain height.
func (c *Chain) Height() uint64 { return c.tip.height }

// Has reports whether the chain knows the block.
func (c *Chain) Has(id chaincrypto.Digest) bool {
	_, ok := c.nodes[id]
	return ok
}

// StaleBlocks returns how many valid blocks ended up off the best chain
// — the fork metric for experiment F7.
func (c *Chain) StaleBlocks() int { return c.staleBlocks }

// Reorgs returns how many times the best tip switched branches, and the
// deepest reorganization observed.
func (c *Chain) Reorgs() (count, deepest int) { return c.reorgs, c.deepestReorg }

// NextBits returns the difficulty target the *next* block must satisfy,
// applying the retarget rule at interval boundaries: scale the previous
// target by actual/expected elapsed time, clamped to 4× either way.
func (c *Chain) NextBits() uint32 {
	return c.nextBitsAfter(c.tip)
}

func (c *Chain) nextBitsAfter(tip *chainNode) uint32 {
	interval := uint64(c.params.RetargetInterval)
	nextHeight := tip.height + 1
	if interval == 0 || nextHeight%interval != 0 {
		return tip.block.Header.Bits
	}
	// Walk back to the start of the closing interval.
	first := tip
	for i := uint64(0); i < interval-1 && first.height > 0; i++ {
		first = c.nodes[first.block.Header.PrevHash]
	}
	actual := int64(tip.block.Header.Timestamp) - int64(first.block.Header.Timestamp)
	expected := int64(TargetSpacing) * int64(interval-1)
	if expected <= 0 {
		expected = 1
	}
	if actual < expected/4 {
		actual = expected / 4
	}
	if actual > expected*4 {
		actual = expected * 4
	}
	if actual <= 0 {
		actual = 1
	}
	oldTarget := CompactToTarget(tip.block.Header.Bits)
	newTarget := new(big.Int).Mul(oldTarget, big.NewInt(actual))
	newTarget.Div(newTarget, big.NewInt(expected))
	maxTarget := CompactToTarget(initialBits)
	if newTarget.Cmp(maxTarget) > 0 {
		newTarget = maxTarget
	}
	if newTarget.Sign() <= 0 {
		newTarget = big.NewInt(1)
	}
	return TargetToCompact(newTarget)
}

// Accept validates and connects a block, returning whether it was added
// (false for duplicates and orphans held for later) and whether the best
// tip changed. Orphans whose parent arrives later connect automatically.
func (c *Chain) Accept(b *Block) (added, tipChanged bool, err error) {
	id := b.Hash()
	if _, dup := c.nodes[id]; dup {
		return false, false, nil
	}
	if err := ValidateBlock(b); err != nil {
		return false, false, err
	}
	parent, ok := c.nodes[b.Header.PrevHash]
	if !ok {
		c.orphans[b.Header.PrevHash] = append(c.orphans[b.Header.PrevHash], b)
		return false, false, nil
	}
	// Contextual rule: the block must satisfy the difficulty the chain
	// demands at its position.
	if want := c.nextBitsAfter(parent); b.Header.Bits != want {
		return false, false, fmt.Errorf("%w: bits %08x, want %08x at height %d",
			ErrInvalidBlock, b.Header.Bits, want, parent.height+1)
	}
	node := &chainNode{
		block:  b,
		height: parent.height + 1,
		work:   new(big.Int).Add(parent.work, Work(b.Header.Bits)),
	}
	c.nodes[id] = node
	tipChanged = c.maybeAdoptTip(node)
	// Connect any orphans waiting on this block.
	for _, orphan := range c.orphans[id] {
		if _, tc, err := c.Accept(orphan); err == nil && tc {
			tipChanged = true
		}
	}
	delete(c.orphans, id)
	return true, tipChanged, nil
}

// maybeAdoptTip switches the best chain to node if it carries more work.
func (c *Chain) maybeAdoptTip(node *chainNode) bool {
	if node.work.Cmp(c.tip.work) <= 0 {
		// A valid block not extending the best tip is (for now) stale.
		if node.block.Header.PrevHash != c.tip.block.Hash() {
			c.staleBlocks++
		}
		return false
	}
	if node.block.Header.PrevHash != c.tip.block.Hash() {
		// Branch switch: measure reorg depth back to the fork point.
		c.reorgs++
		depth := c.reorgDepth(node)
		if depth > c.deepestReorg {
			c.deepestReorg = depth
		}
		c.staleBlocks += depth // the abandoned suffix becomes stale
	}
	c.tip = node
	return true
}

// reorgDepth counts how many blocks of the current best chain are
// abandoned when switching to newTip.
func (c *Chain) reorgDepth(newTip *chainNode) int {
	onNew := map[chaincrypto.Digest]bool{}
	for n := newTip; ; {
		onNew[n.block.Hash()] = true
		if n.height == 0 {
			break
		}
		n = c.nodes[n.block.Header.PrevHash]
	}
	depth := 0
	for n := c.tip; !onNew[n.block.Hash()]; {
		depth++
		if n.height == 0 {
			break
		}
		n = c.nodes[n.block.Header.PrevHash]
	}
	return depth
}

// BestChain returns the best-chain block hashes from genesis to tip.
func (c *Chain) BestChain() []chaincrypto.Digest {
	var rev []chaincrypto.Digest
	for n := c.tip; ; {
		rev = append(rev, n.block.Hash())
		if n.height == 0 {
			break
		}
		n = c.nodes[n.block.Header.PrevHash]
	}
	out := make([]chaincrypto.Digest, len(rev))
	for i, h := range rev {
		out[len(rev)-1-i] = h
	}
	return out
}

// BlockAt returns the best-chain block at the given height.
func (c *Chain) BlockAt(height uint64) (*Block, bool) {
	if height > c.tip.height {
		return nil, false
	}
	n := c.tip
	for n.height > height {
		n = c.nodes[n.block.Header.PrevHash]
	}
	return n.block, true
}

// Block returns a known block by hash.
func (c *Chain) Block(id chaincrypto.Digest) (*Block, bool) {
	n, ok := c.nodes[id]
	if !ok {
		return nil, false
	}
	return n.block, true
}

// CommonPrefix returns the length of the shared best-chain prefix of two
// chains — the convergence check for fork-resolution experiments.
func CommonPrefix(a, b *Chain) int {
	ca, cb := a.BestChain(), b.BestChain()
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	for i := 0; i < n; i++ {
		if ca[i] != cb[i] {
			return i
		}
	}
	return n
}
