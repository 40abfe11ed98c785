package pos

import (
	"fmt"
	"math"
	"testing"

	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

func stakes3() map[types.NodeID]uint64 {
	return map[types.NodeID]uint64{0: 600, 1: 300, 2: 100}
}

func TestProposerDeterministic(t *testing.T) {
	a := NewLedger(Params{Seed: 42}, stakes3())
	b := NewLedger(Params{Seed: 42}, stakes3())
	for slot := uint64(1); slot <= 100; slot++ {
		pa, oka := a.ProposerFor(slot)
		pb, okb := b.ProposerFor(slot)
		if pa != pb || oka != okb {
			t.Fatalf("slot %d: %v/%v vs %v/%v", slot, pa, oka, pb, okb)
		}
	}
}

func TestBlockShareTracksStakeShare(t *testing.T) {
	// "A stakeholder who has p fraction of the coins creates a new block
	// with p probability": 60/30/10 stakes should win ≈60/30/10% of
	// blocks under randomized selection.
	l := NewLedger(Params{Seed: 7, Reward: 0}, stakes3()) // reward 0 isolates the base rule
	const slots = 5000
	for i := 0; i < slots; i++ {
		if _, ok := l.Advance(nil); !ok {
			t.Fatal("empty slot with positive stakes")
		}
	}
	wins := l.Wins()
	for id, wantFrac := range map[types.NodeID]float64{0: 0.6, 1: 0.3, 2: 0.1} {
		got := float64(wins[id]) / slots
		if math.Abs(got-wantFrac) > 0.05 {
			t.Fatalf("validator %v: block share %.3f, stake share %.3f", id, got, wantFrac)
		}
	}
}

func TestRewardZeroKeepsSharesStable(t *testing.T) {
	l := NewLedger(Params{Seed: 7, Reward: 0}, stakes3())
	before := l.TotalStake()
	for i := 0; i < 100; i++ {
		l.Advance(nil)
	}
	if l.TotalStake() != before {
		t.Fatal("zero-reward ledger changed total stake")
	}
}

func TestProportionalRewardsAreMartingale(t *testing.T) {
	// The slide asks "don't the rich get richer?" — under pure
	// stake-proportional selection the whale's *absolute* stake grows
	// with compounding rewards, but its expected *share* stays constant
	// (each slot pays out in proportion to the win probability). Verify
	// both: stake grows, share stays within a narrow band.
	l := NewLedger(Params{Seed: 9, Reward: 5}, stakes3())
	startStake := l.byID[0].Stake
	startShare := float64(l.byID[0].Stake) / float64(l.TotalStake())
	for i := 0; i < 3000; i++ {
		l.Advance(nil)
	}
	if l.byID[0].Stake <= startStake {
		t.Fatal("whale stake did not grow despite rewards")
	}
	endShare := float64(l.byID[0].Stake) / float64(l.TotalStake())
	if math.Abs(endShare-startShare) > 0.08 {
		t.Fatalf("share drifted beyond martingale band: %.3f -> %.3f", startShare, endShare)
	}
}

func TestCoinAgeBoostsDormantHolders(t *testing.T) {
	// Coin-age gives small holders a win rate above their raw stake
	// share, because age accumulates while they wait and resets for
	// frequent winners.
	const slots = 5000
	share := func(sel Selection) float64 {
		l := NewLedger(Params{Seed: 11, Selection: sel, Reward: 0}, stakes3())
		for i := 0; i < slots; i++ {
			l.Advance(nil)
		}
		return float64(l.Wins()[2]) / slots // the 10% holder
	}
	random, aged := share(Randomized), share(CoinAge)
	if aged <= random {
		t.Fatalf("coin-age did not help the small holder: random=%.3f aged=%.3f", random, aged)
	}
}

func TestCoinAgeMinimumDormancy(t *testing.T) {
	// A validator that just won has age 0 < minAge and weight 0.
	l := NewLedger(Params{Selection: CoinAge, Seed: 3}, stakes3())
	b, ok := l.Advance(nil)
	if !ok {
		t.Fatal("no block")
	}
	winner := l.byID[b.Proposer]
	if w := l.weight(winner); w != 0 {
		t.Fatalf("fresh winner has weight %d, want 0", w)
	}
}

func TestVerifyAndApplyRejectsIllegitimateProposer(t *testing.T) {
	l := NewLedger(Params{Seed: 5}, stakes3())
	id, _ := l.ProposerFor(1)
	wrong := types.NodeID((int(id) + 1) % 3)
	b := Block{Slot: 1, Proposer: wrong, Parent: l.tipID}
	if err := l.VerifyAndApply(b); err == nil {
		t.Fatal("illegitimate proposer accepted")
	}
	good := Block{Slot: 1, Proposer: id, Parent: l.tipID}
	if err := l.VerifyAndApply(good); err != nil {
		t.Fatal(err)
	}
	// Wrong slot and wrong parent also rejected.
	if err := l.VerifyAndApply(Block{Slot: 5, Proposer: id}); err == nil {
		t.Fatal("slot gap accepted")
	}
	id2, _ := l.ProposerFor(2)
	if err := l.VerifyAndApply(Block{Slot: 2, Proposer: id2}); err == nil {
		t.Fatal("wrong parent accepted")
	}
}

func TestNetworkedValidatorsConverge(t *testing.T) {
	stakes := stakes3()
	peers := []types.NodeID{0, 1, 2}
	rc := runner.New(runner.Config[Message]{
		Fabric: simnet.NewFabric(simnet.Options{Seed: 1}),
		Dest:   Dest, Src: Src, Kind: Kind,
	})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = NewNode(types.NodeID(i), Params{Seed: 21}, stakes, peers, 5)
		rc.Add(types.NodeID(i), nodes[i])
	}
	nodes[0].Submit(types.Value("tx-1"))
	rc.Run(600)
	h := nodes[0].ledger.Height()
	if h < 50 {
		t.Fatalf("chain only reached height %d", h)
	}
	for _, n := range nodes[1:] {
		if n.ledger.Height() < h-2 {
			t.Fatalf("validator lagging: %d vs %d", n.ledger.Height(), h)
		}
		// Same tip prefix ⇒ same stake evolution.
		if n.ledger.byID[0].Stake != nodes[0].ledger.byID[0].Stake &&
			absDiff(n.ledger.Height(), nodes[0].ledger.Height()) == 0 {
			t.Fatal("stake tables diverged at equal height")
		}
	}
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

func TestNetworkedForgeryRejected(t *testing.T) {
	// A validator forging blocks for slots it did not win is ignored.
	stakes := stakes3()
	peers := []types.NodeID{0, 1, 2}
	rc := runner.New(runner.Config[Message]{
		Fabric: simnet.NewFabric(simnet.Options{Seed: 2}),
		Dest:   Dest, Src: Src, Kind: Kind,
	})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = NewNode(types.NodeID(i), Params{Seed: 33}, stakes, peers, 5)
		rc.Add(types.NodeID(i), nodes[i])
	}
	// Node 2 claims every slot regardless of selection.
	rc.Intercept(2, func(m Message) []Message {
		m.Block.Proposer = 2
		return []Message{m}
	})
	rc.Run(400)
	wins := nodes[0].ledger.Wins()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total == 0 {
		t.Fatal("chain never advanced")
	}
	// Node 2's legitimate share is ~10%; forgeries must not inflate it.
	if frac := float64(wins[2]) / float64(total); frac > 0.3 {
		t.Fatalf("forger won %.2f of blocks", frac)
	}
}

// Runner accessors.
func Src(m Message) types.NodeID { return m.From }

func Dest(m Message) types.NodeID { return m.To }

func Kind(m Message) string { return m.Kind.String() }

// NewNode builds a networked validator sharing the given parameters and
// stake table with its peers.
func NewNode(id types.NodeID, params Params, stakes map[types.NodeID]uint64, peers []types.NodeID, slotTicks int) *Node {
	if slotTicks <= 0 {
		slotTicks = 5
	}
	return &Node{
		id:        id,
		ledger:    NewLedger(params, stakes),
		peers:     peers,
		slotTicks: slotTicks,
		tickIn:    slotTicks,
		held:      make(map[uint64]Block),
	}
}

// TotalStake returns the sum of all stakes.
func (l *Ledger) TotalStake() uint64 {
	t := uint64(0)
	for _, v := range l.vals {
		t += v.Stake
	}
	return t
}

// ---------------------------------------------------------------------------
// Networked validator (gossip layer over the deterministic ledger)

// MsgKind enumerates PoS gossip messages.
type MsgKind uint8

const (
	MsgBlock MsgKind = iota + 1
)

func (k MsgKind) String() string { return "block" }

// Message is a PoS wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	Block    Block
}

// Node is one networked validator: each slot lasts SlotTicks; the slot's
// proposer builds a block and gossips it; everyone else verifies.
type Node struct {
	id        types.NodeID
	ledger    *Ledger
	peers     []types.NodeID
	slotTicks int
	tickIn    int
	pending   []types.Value
	held      map[uint64]Block // blocks for future slots
	out       []Message
}

// Submit queues a payload for the node's next proposed block.
func (n *Node) Submit(v types.Value) { n.pending = append(n.pending, v.Clone()) }

// Step consumes a gossiped block.
func (n *Node) Step(m Message) {
	if m.Kind != MsgBlock {
		return
	}
	n.tryApply(m.Block)
}

func (n *Node) tryApply(b Block) {
	want := uint64(n.ledger.Height()) + 1
	if b.Slot < want {
		return // already have it
	}
	if b.Slot > want {
		n.held[b.Slot] = b
		return
	}
	if err := n.ledger.VerifyAndApply(b); err != nil {
		return
	}
	for {
		next, ok := n.held[uint64(n.ledger.Height())+1]
		if !ok {
			return
		}
		delete(n.held, next.Slot)
		if n.ledger.VerifyAndApply(next) != nil {
			return
		}
	}
}

// Tick advances slot time; at each slot boundary the legitimate proposer
// (and only it) produces the block.
func (n *Node) Tick() {
	n.tickIn--
	if n.tickIn > 0 {
		return
	}
	n.tickIn = n.slotTicks
	slot := uint64(n.ledger.Height()) + 1
	id, ok := n.ledger.ProposerFor(slot)
	if !ok || id != n.id {
		return
	}
	payload := n.pending
	n.pending = nil
	b, produced := n.ledger.Advance(payload)
	if !produced {
		return
	}
	for _, p := range n.peers {
		if p != n.id {
			n.out = append(n.out, Message{Kind: MsgBlock, From: n.id, To: p, Block: b})
		}
	}
}

// Drain returns pending outbound messages.
func (n *Node) Drain() []Message {
	out := n.out
	n.out = nil
	return out
}

// VerifyAndApply checks that a received block names the legitimate
// proposer for its slot and extends the tip, then applies it. Used by
// networked validators replaying a peer's block.
func (l *Ledger) VerifyAndApply(b Block) error {
	want := uint64(len(l.chain)) + 1
	if b.Slot != want {
		return fmt.Errorf("pos: block for slot %d, want %d", b.Slot, want)
	}
	if b.Parent != l.tipID {
		return fmt.Errorf("pos: block does not extend the tip")
	}
	id, ok := l.ProposerFor(b.Slot)
	if !ok || id != b.Proposer {
		return fmt.Errorf("pos: illegitimate proposer %v for slot %d (want %v)", b.Proposer, b.Slot, id)
	}
	for _, v := range l.vals {
		v.age++
	}
	l.apply(b)
	return nil
}

// Height returns the chain length.
func (l *Ledger) Height() int { return len(l.chain) }
