package pow

import (
	"math/big"

	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// SelfishMiner implements the selfish-mining attack (Eyal & Sirer, FC
// 2014) the paper lists under "Other Issues": the attacker withholds
// found blocks, mining privately ahead of the public chain, and
// publishes strategically to waste honest work. Above roughly a third
// of the network hash rate the attacker's revenue share exceeds its
// hash-power share — the experiment in selfish_test.go measures the
// crossover.
//
// Strategy (the classic state machine):
//
//	attacker finds a block  → withhold, extend the private lead
//	honest block arrives, lead 0 → adopt honest chain
//	honest block arrives, lead 1 → publish the private block (race)
//	honest block arrives, lead 2 → publish everything (orphan honest)
//	honest block arrives, lead ≥3 → publish one block, keep mining
type SelfishMiner struct {
	id   types.NodeID
	cfg  MinerConfig
	pub  *Chain // the attacker's view of the public chain
	priv *Chain // public chain + withheld private extension
	rng  *simnet.RNG
	now  uint64

	lead       int // private height − public height
	unreleased []*Block

	work       *Block
	workTarget *big.Int
	hasher     *workHasher
	nonce      uint32

	out []Message
}

// NewSelfishMiner builds the attacker.
func NewSelfishMiner(id types.NodeID, cfg MinerConfig) *SelfishMiner {
	if cfg.HashPerTick <= 0 {
		cfg.HashPerTick = 16
	}
	return &SelfishMiner{
		id:   id,
		cfg:  cfg,
		pub:  NewChain(cfg.Params),
		priv: NewChain(cfg.Params),
		rng:  simnet.NewRNG(cfg.Seed ^ (uint64(id)+29)<<12),
	}
}

func (s *SelfishMiner) send(msg Message) {
	msg.From = s.id
	s.out = append(s.out, msg)
}

func (s *SelfishMiner) gossip(b *Block) {
	for _, p := range s.cfg.Peers {
		if p == s.id {
			continue
		}
		s.send(Message{Kind: MsgBlock, To: p, Block: b})
	}
}

// Step consumes honest blocks, applying the selfish response rule.
func (s *SelfishMiner) Step(msg Message) {
	if msg.Kind != MsgBlock || msg.Block == nil {
		return
	}
	b := msg.Block
	if s.pub.Has(b.Hash()) {
		return
	}
	_, tipChanged, err := s.pub.Accept(b)
	if err != nil {
		return
	}
	if !tipChanged {
		return
	}
	// The honest network advanced. React per the strategy table.
	switch {
	case s.lead == 0:
		// Nothing withheld: adopt the honest chain.
		s.adoptPublic(b)
	case s.lead == 1:
		// Race: publish our single withheld block and keep mining on it.
		s.releaseAll()
	case s.lead == 2:
		// Publish both: honest block orphaned, we regain lead 0.
		s.releaseAll()
	default:
		// Long lead: release one block to stay just ahead.
		s.releaseOne()
	}
	// If the public chain out-works the private one (lost race), rebase.
	_, pubH, _ := s.pub.Tip()
	_, privH, _ := s.priv.Tip()
	if pubH > privH {
		s.adoptPublic(b)
	}
}

func (s *SelfishMiner) adoptPublic(b *Block) {
	s.syncPriv()
	s.unreleased = nil
	s.lead = 0
	s.work = nil
}

// syncPriv replays the public best chain into the private chain so the
// attacker never mines behind the honest tip. Without this, a private
// chain that lost a race orphans later honest blocks (their parents
// never arrive on the private side) and the attacker stalls on a stale
// fork point.
func (s *SelfishMiner) syncPriv() {
	for _, id := range s.pub.BestChain() {
		if s.priv.Has(id) {
			continue
		}
		if b, ok := s.pub.Block(id); ok {
			s.priv.Accept(b)
		}
	}
}

func (s *SelfishMiner) releaseAll() {
	for _, b := range s.unreleased {
		s.pub.Accept(b)
		s.gossip(b)
	}
	s.unreleased = nil
	s.lead = 0
}

func (s *SelfishMiner) releaseOne() {
	if len(s.unreleased) == 0 {
		s.lead = 0
		return
	}
	b := s.unreleased[0]
	s.unreleased = s.unreleased[1:]
	s.pub.Accept(b)
	s.gossip(b)
	s.lead--
}

// Tick mines on the private tip.
func (s *SelfishMiner) Tick() {
	s.now++
	if s.work == nil {
		s.buildWork()
	}
	s.work.Header.Timestamp = s.now
	for i := 0; i < s.cfg.HashPerTick; i++ {
		nonce := s.nonce
		s.nonce++
		if s.hasher.attempt(s.now, nonce) {
			s.work.Header.Nonce = nonce
			b := s.work
			s.work = nil
			if _, _, err := s.priv.Accept(b); err != nil {
				return
			}
			s.unreleased = append(s.unreleased, b)
			s.lead++
			return
		}
	}
}

func (s *SelfishMiner) buildWork() {
	tipHash, height, _ := s.priv.Tip()
	bits := s.priv.NextBits()
	reward := Reward(height + 1)
	b := &Block{
		Header: Header{Version: 2, PrevHash: tipHash, Timestamp: s.now, Bits: bits},
		Txs:    []Tx{CoinbaseFor(int(s.id), height+1, reward)},
	}
	b.Header.MerkleRoot = b.MerkleRoot()
	s.work = b
	s.workTarget = CompactToTarget(bits)
	s.hasher = newWorkHasher(&b.Header, s.workTarget)
	s.nonce = uint32(s.rng.Uint64())
}

// Drain returns pending outbound messages.
func (s *SelfishMiner) Drain() []Message {
	out := s.out
	s.out = nil
	return out
}
