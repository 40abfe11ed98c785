// Package pow implements Nakamoto-style Proof-of-Work consensus as the
// paper presents it: participants are *unknown*, agreement replaces
// communication with computation, and the protocol is the mining loop
// itself — find a nonce such that SHA256d(header) is below a difficulty
// target, append the block, broadcast, and resolve forks by following
// the chain with the most accumulated work.
//
// Everything is real at reduced scale: block headers follow Bitcoin's
// layout (version, previous hash, merkle root, timestamp, compact target
// bits, nonce), hashing is double SHA-256, the merkle root is computed
// over the transactions, and difficulty retargets every
// RetargetInterval blocks by the ratio of actual to expected block time
// (clamped 4×), exactly like the "Difficulty is adjusted every 2016
// blocks" slide at simulation-friendly constants. What is substituted:
// miners' hash power is a per-tick attempt budget instead of ASIC
// farms, which preserves the quantities the experiments measure (fork
// rate versus propagation delay, retarget convergence, reward shares).
package pow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/core"
	"fortyconsensus/internal/quorum"
)

func init() {
	core.Register(core.Profile{
		Name:         "pow",
		Synchrony:    core.Asynchronous,
		Failure:      core.Byzantine,
		Strategy:     core.Optimistic,
		Awareness:    core.UnknownParticipants,
		NodesFor:     func(f int) int { return quorum.MajorityFor(f).Size() }, // honest-majority of hash power
		NodesFormula: "majority of hash power",
		QuorumFor:    func(f int) int { return f + 1 },
		CommitPhases: 1,
		Complexity:   core.Linear,
		Decomposition: []core.Phase{
			core.ValueDiscovery, core.Decision,
		},
		Notes: "computation replaces communication; probabilistic finality; forks resolve to most work",
	})
}

// Tx is one transaction payload (opaque bytes; the first transaction of
// a block is the coinbase).
type Tx []byte

// Header is a Bitcoin-shaped block header.
type Header struct {
	Version    uint32
	PrevHash   chaincrypto.Digest
	MerkleRoot chaincrypto.Digest
	Timestamp  uint64 // simulation ticks
	Bits       uint32 // compact difficulty target
	Nonce      uint32
}

// headerLen is the serialized header size: Bitcoin's layout with a
// 64-bit timestamp (simulation ticks), so 84 bytes instead of 80.
const headerLen = 84

// encodeInto serializes the header into a fixed-size buffer. The mining
// loop hashes one encoded header per attempt, so this path must not
// allocate.
func (h *Header) encodeInto(buf *[headerLen]byte) {
	binary.LittleEndian.PutUint32(buf[0:4], h.Version)
	copy(buf[4:36], h.PrevHash[:])
	copy(buf[36:68], h.MerkleRoot[:])
	binary.LittleEndian.PutUint64(buf[68:76], h.Timestamp)
	binary.LittleEndian.PutUint32(buf[76:80], h.Bits)
	binary.LittleEndian.PutUint32(buf[80:84], h.Nonce)
}

// Hash returns the header's SHA256d digest.
func (h Header) Hash() chaincrypto.Digest {
	var buf [headerLen]byte
	h.encodeInto(&buf)
	return chaincrypto.DoubleHash(buf[:])
}

// workHasher is the per-work-unit mining state shared by Miner and
// SelfishMiner: a SHA-256 midstate over the constant first 64 header
// bytes plus the expanded target, so each attempt costs two SHA-256
// compressions and zero allocations. It produces digests identical to
// Header.Hash — only the constant prefix's compression is cached.
type workHasher struct {
	mid    *chaincrypto.SHA256dMidstate
	tail   [headerLen - 64]byte // merkle[28:], timestamp, bits, nonce
	target [32]byte
}

// newWorkHasher captures the constant parts of h and the target. The
// header's timestamp and nonce may change per attempt; everything in the
// first 64 bytes (version, prev hash, merkle[:28]) must stay fixed.
func newWorkHasher(h *Header, target *big.Int) *workHasher {
	var buf [headerLen]byte
	h.encodeInto(&buf)
	w := &workHasher{mid: chaincrypto.NewSHA256dMidstate(buf[:64])}
	copy(w.tail[:], buf[64:])
	if target.Sign() > 0 && target.BitLen() > 256 {
		for i := range w.target {
			w.target[i] = 0xFF // every hash meets an oversized target
		}
	} else if target.Sign() > 0 {
		target.FillBytes(w.target[:])
	}
	return w
}

// attempt hashes the work unit's header at (timestamp, nonce) and
// reports whether the digest meets the target.
func (w *workHasher) attempt(timestamp uint64, nonce uint32) bool {
	binary.LittleEndian.PutUint64(w.tail[4:12], timestamp)
	binary.LittleEndian.PutUint32(w.tail[16:20], nonce)
	d := w.mid.SumDouble(w.tail[:])
	return bytes.Compare(d[:], w.target[:]) <= 0
}

// Block is a header plus its transactions.
type Block struct {
	Header Header
	Txs    []Tx
}

// Hash returns the block's identifier.
func (b *Block) Hash() chaincrypto.Digest { return b.Header.Hash() }

// MerkleRoot computes the root over the block's transactions.
func (b *Block) MerkleRoot() chaincrypto.Digest {
	leaves := make([][]byte, len(b.Txs))
	for i, tx := range b.Txs {
		leaves[i] = tx
	}
	return chaincrypto.MerkleRoot(leaves)
}

// ---------------------------------------------------------------------------
// Compact difficulty targets ("bits"), Bitcoin's floating-point format.

// CompactToTarget expands compact bits to the 256-bit target.
func CompactToTarget(bits uint32) *big.Int {
	exponent := uint(bits >> 24)
	mantissa := int64(bits & 0x007FFFFF)
	t := big.NewInt(mantissa)
	if exponent <= 3 {
		return t.Rsh(t, 8*(3-exponent))
	}
	return t.Lsh(t, 8*(exponent-3))
}

// TargetToCompact compresses a target to compact bits.
func TargetToCompact(target *big.Int) uint32 {
	bytesLen := uint((target.BitLen() + 7) / 8)
	var mantissa uint64
	if bytesLen <= 3 {
		mantissa = target.Uint64() << (8 * (3 - bytesLen))
	} else {
		t := new(big.Int).Rsh(target, 8*(bytesLen-3))
		mantissa = t.Uint64()
	}
	// Avoid the sign bit, as Bitcoin does.
	if mantissa&0x00800000 != 0 {
		mantissa >>= 8
		bytesLen++
	}
	return uint32(bytesLen)<<24 | uint32(mantissa)
}

// HashMeetsTarget reports whether digest interpreted as a big-endian
// integer is at or below the target. The comparison runs byte-wise
// against the target's fixed-width encoding so the per-attempt check
// allocates nothing.
func HashMeetsTarget(d chaincrypto.Digest, target *big.Int) bool {
	if target.Sign() < 0 {
		return false
	}
	if target.BitLen() > 256 {
		return true // every 256-bit hash is below the target
	}
	var tb [32]byte
	target.FillBytes(tb[:])
	return bytes.Compare(d[:], tb[:]) <= 0
}

// Work returns the expected number of hash attempts a block at the given
// bits represents: ⌊2²⁵⁶ / (target+1)⌋, Bitcoin's chainwork formula.
func Work(bits uint32) *big.Int {
	target := CompactToTarget(bits)
	num := new(big.Int).Lsh(big.NewInt(1), 256)
	den := new(big.Int).Add(target, big.NewInt(1))
	return num.Div(num, den)
}

// ---------------------------------------------------------------------------
// Chain parameters

// The chain's laptop-scale constants: blocks every ~20 ticks, at most
// 32 transactions each, and a coinbase reward of 50 halving every 64
// blocks.
const (
	// TargetSpacing is the desired ticks between blocks.
	TargetSpacing = 20
	// initialBits is the genesis difficulty (very easy for simulation),
	// and the easiest a retarget may set.
	initialBits     = 0x1f00ffff
	maxTxPerBlock   = 32
	initialReward   = 50
	halvingInterval = 64
)

// Params configures a simulated PoW network.
type Params struct {
	// RetargetInterval is the number of blocks between difficulty
	// adjustments (Bitcoin: 2016).
	RetargetInterval int
}

// DefaultParams retargets every 16 blocks.
func DefaultParams() Params {
	return Params{RetargetInterval: 16}
}

// Reward returns the coinbase subsidy at the given height; from the
// 64th halving on, the shift leaves nothing.
func Reward(height uint64) uint64 {
	return initialReward >> (height / halvingInterval)
}

// GenesisBlock builds the deterministic genesis block.
func GenesisBlock() *Block {
	b := &Block{
		Header: Header{Version: 2, Bits: initialBits, Timestamp: 0},
		Txs:    []Tx{Tx("genesis-coinbase")},
	}
	b.Header.MerkleRoot = b.MerkleRoot()
	return b
}

// ---------------------------------------------------------------------------
// Validation

// ErrInvalidBlock reports a consensus-rule violation.
var ErrInvalidBlock = errors.New("pow: invalid block")

// ValidateBlock checks a block's intrinsic rules: proof of work meets its
// claimed target, the merkle root matches the transactions, and a
// coinbase is present.
func ValidateBlock(b *Block) error {
	if len(b.Txs) == 0 {
		return fmt.Errorf("%w: no coinbase", ErrInvalidBlock)
	}
	if got := b.MerkleRoot(); got != b.Header.MerkleRoot {
		return fmt.Errorf("%w: merkle root mismatch", ErrInvalidBlock)
	}
	if !HashMeetsTarget(b.Hash(), CompactToTarget(b.Header.Bits)) {
		return fmt.Errorf("%w: insufficient proof of work", ErrInvalidBlock)
	}
	return nil
}

// CoinbaseFor builds a miner's coinbase transaction; its uniqueness per
// (miner, height) keeps block hashes distinct across miners.
func CoinbaseFor(miner int, height uint64, reward uint64) Tx {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "coinbase|miner=%d|height=%d|reward=%d", miner, height, reward)
	return Tx(buf.Bytes())
}
