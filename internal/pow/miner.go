package pow

import (
	"fmt"
	"math/big"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// MsgKind enumerates gossip message types.
type MsgKind uint8

const (
	MsgBlock MsgKind = iota + 1
	MsgTx
	MsgGetBlock // orphan recovery: request a parent by hash
)

func (k MsgKind) String() string {
	switch k {
	case MsgBlock:
		return "block"
	case MsgTx:
		return "tx"
	case MsgGetBlock:
		return "get-block"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Message is a gossip wire message.
type Message struct {
	Kind     MsgKind
	From, To types.NodeID
	Block    *Block
	Tx       Tx
	Want     chaincrypto.Digest
}

// Runner accessors.
func Src(m Message) types.NodeID  { return m.From }
func Dest(m Message) types.NodeID { return m.To }
func Kind(m Message) string       { return m.Kind.String() }

// MinerConfig tunes one miner.
type MinerConfig struct {
	Params Params
	// Peers lists the other miners this node gossips with.
	Peers []types.NodeID
	// HashPerTick is the miner's attempt budget per tick — its share of
	// network hash power.
	HashPerTick int
	// Seed decorrelates nonce starting points.
	Seed uint64
}

// Miner is one mining node: it maintains a chain replica, mines on the
// best tip with real double-SHA256 attempts, and gossips blocks.
type Miner struct {
	id    types.NodeID
	cfg   MinerConfig
	chain *Chain
	rng   *simnet.RNG
	now   uint64

	mempool []Tx
	seenTx  map[chaincrypto.Digest]bool

	// Mining state: the block being worked on and the next nonce.
	work       *Block
	workTarget *big.Int
	hasher     *workHasher
	nonce      uint32

	mined int // blocks this miner found

	out []Message
}

// NewMiner builds a miner.
func NewMiner(id types.NodeID, cfg MinerConfig) *Miner {
	if cfg.HashPerTick <= 0 {
		cfg.HashPerTick = 16
	}
	return &Miner{
		id:     id,
		cfg:    cfg,
		chain:  NewChain(cfg.Params),
		rng:    simnet.NewRNG(cfg.Seed ^ (uint64(id)+13)<<16),
		seenTx: make(map[chaincrypto.Digest]bool),
	}
}

// Chain exposes the miner's chain replica for assertions and metrics.
func (m *Miner) Chain() *Chain { return m.chain }

// Mined returns how many blocks this miner found.
func (m *Miner) Mined() int { return m.mined }

// SubmitTx adds a transaction to the mempool and gossips it.
func (m *Miner) SubmitTx(tx Tx) {
	d := chaincrypto.Hash(tx)
	if m.seenTx[d] {
		return
	}
	m.seenTx[d] = true
	m.mempool = append(m.mempool, tx)
	m.gossip(Message{Kind: MsgTx, Tx: tx})
	m.work = nil // rebuild the template to include it
}

func (m *Miner) send(msg Message) {
	msg.From = m.id
	m.out = append(m.out, msg)
}

func (m *Miner) gossip(msg Message) {
	for _, p := range m.cfg.Peers {
		if p == m.id {
			continue
		}
		mm := msg
		mm.To = p
		m.send(mm)
	}
}

// Step consumes one delivered gossip message.
func (m *Miner) Step(msg Message) {
	switch msg.Kind {
	case MsgBlock:
		m.onBlock(msg.Block, msg.From)
	case MsgTx:
		d := chaincrypto.Hash(msg.Tx)
		if !m.seenTx[d] {
			m.seenTx[d] = true
			m.mempool = append(m.mempool, msg.Tx)
			m.gossip(Message{Kind: MsgTx, Tx: msg.Tx})
		}
	case MsgGetBlock:
		if b, ok := m.chain.Block(msg.Want); ok {
			m.send(Message{Kind: MsgBlock, To: msg.From, Block: b})
		}
	}
}

func (m *Miner) onBlock(b *Block, from types.NodeID) {
	if b == nil || m.chain.Has(b.Hash()) {
		return
	}
	added, tipChanged, err := m.chain.Accept(b)
	if err != nil {
		return
	}
	if !added {
		// Orphan: ask the sender for the missing parent.
		if !m.chain.Has(b.Header.PrevHash) {
			m.send(Message{Kind: MsgGetBlock, To: from, Want: b.Header.PrevHash})
		}
		return
	}
	// Transactions confirmed by the incoming block leave our mempool,
	// so we don't re-mine them into a second block.
	m.pruneMempool(b)
	m.gossip(Message{Kind: MsgBlock, Block: b})
	if tipChanged {
		m.work = nil // mine on the new best tip
	}
}

func (m *Miner) pruneMempool(b *Block) {
	if len(b.Txs) <= 1 {
		return
	}
	inBlock := make(map[chaincrypto.Digest]bool, len(b.Txs))
	for _, tx := range b.Txs[1:] {
		inBlock[chaincrypto.Hash(tx)] = true
	}
	var keep []Tx
	for _, tx := range m.mempool {
		if !inBlock[chaincrypto.Hash(tx)] {
			keep = append(keep, tx)
		}
	}
	if len(keep) != len(m.mempool) {
		m.mempool = keep
		m.work = nil // rebuild the template without the confirmed txs
	}
}

// buildWork assembles a fresh block template on the current tip.
func (m *Miner) buildWork() {
	tipHash, height, _ := m.chain.Tip()
	bits := m.chain.NextBits()
	reward := Reward(height + 1)
	txs := []Tx{CoinbaseFor(int(m.id), height+1, reward)}
	for _, tx := range m.mempool {
		if len(txs) >= maxTxPerBlock {
			break
		}
		txs = append(txs, tx)
	}
	b := &Block{
		Header: Header{
			Version:   2,
			PrevHash:  tipHash,
			Timestamp: m.now,
			Bits:      bits,
		},
		Txs: txs,
	}
	b.Header.MerkleRoot = b.MerkleRoot()
	m.work = b
	m.workTarget = CompactToTarget(bits)
	m.hasher = newWorkHasher(&b.Header, m.workTarget)
	m.nonce = uint32(m.rng.Uint64())
}

// Tick performs this miner's per-tick hash attempts — the actual
// proof-of-work loop.
func (m *Miner) Tick() {
	m.now++
	if m.work == nil {
		m.buildWork()
	}
	m.work.Header.Timestamp = m.now
	for i := 0; i < m.cfg.HashPerTick; i++ {
		nonce := m.nonce
		m.nonce++
		if m.hasher.attempt(m.now, nonce) {
			m.work.Header.Nonce = nonce
			m.foundBlock()
			return
		}
	}
}

func (m *Miner) foundBlock() {
	b := m.work
	m.work = nil
	m.mined++
	if _, _, err := m.chain.Accept(b); err != nil {
		// Should be impossible: we mined against our own rules.
		panic(fmt.Sprintf("pow: miner %v produced invalid block: %v", m.id, err))
	}
	// Confirmed transactions leave the mempool.
	m.pruneMempool(b)
	m.gossip(Message{Kind: MsgBlock, Block: b})
}

// Drain returns pending outbound messages.
func (m *Miner) Drain() []Message {
	out := m.out
	m.out = nil
	return out
}

// RewardShare tallies best-chain coinbases per miner on this miner's
// view of the chain — used by the fairness experiments.
func (m *Miner) RewardShare() map[int]int {
	shares := make(map[int]int)
	for _, id := range m.chain.BestChain() {
		b, _ := m.chain.Block(id)
		if b.Header.PrevHash == (chaincrypto.Digest{}) && len(b.Txs) > 0 && string(b.Txs[0]) == "genesis-coinbase" {
			continue
		}
		var miner, height, reward int
		if _, err := fmt.Sscanf(string(b.Txs[0]), "coinbase|miner=%d|height=%d|reward=%d", &miner, &height, &reward); err == nil {
			shares[miner]++
		}
	}
	return shares
}
