// Package chaincrypto supplies the cryptographic building blocks the
// surveyed protocols assume: digital signatures (Zyzzyva commit
// certificates, blockchain transactions), quorum certificates standing in
// for HotStuff's (k,n)-threshold signatures, Merkle roots (Bitcoin block
// bodies), and hashing helpers.
//
// Everything is built on the Go standard library (crypto/ed25519,
// crypto/sha256). The threshold-signature substitution —
// an aggregated list of Ed25519 signatures verified k-of-n — preserves
// the communication pattern HotStuff's linearity argument relies on:
// n votes flow to the leader, one certificate flows back out.
package chaincrypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sort"

	"fortyconsensus/internal/types"
)

// Digest is a SHA-256 hash value.
type Digest [32]byte

// String renders a short hex prefix for traces.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// Compare orders digests bytewise (negative when d < o), giving
// protocol sweeps a total order over request digests: replicas iterate
// pending-request maps via det.SortedKeysFunc(m, Digest.Compare) so
// re-proposals and retransmissions leave every replica in the same
// order regardless of Go's randomised map iteration.
func (d Digest) Compare(o Digest) int { return bytes.Compare(d[:], o[:]) }

// Hash returns the SHA-256 digest of the concatenation of parts.
func Hash(parts ...[]byte) Digest {
	if len(parts) == 1 {
		// Fast path: sha256.Sum256 runs on the stack, with no digest
		// or sum allocation. Mining loops hash millions of single-part
		// headers, so this path carries the PoW experiments.
		return sha256.Sum256(parts[0])
	}
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// HashUint64 folds a uint64 into hashable bytes.
func HashUint64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// DoubleHash is Bitcoin's SHA256d.
func DoubleHash(parts ...[]byte) Digest {
	if len(parts) == 1 {
		first := sha256.Sum256(parts[0])
		return sha256.Sum256(first[:])
	}
	first := Hash(parts...)
	return Hash(first[:])
}

// SHA256dMidstate caches the SHA-256 compression state over a constant
// message prefix so that repeated SHA256d computations sharing that
// prefix skip its compression rounds. This is the classic Bitcoin-miner
// midstate trick: a block header's first 64 bytes (version, previous
// hash, most of the merkle root) are fixed per work unit while only the
// tail (timestamp, bits, nonce) varies per attempt, so each attempt
// costs two compressions instead of three. SumDouble allocates nothing,
// which matters at millions of attempts per simulated experiment.
//
// The prefix should be a multiple of 64 bytes for the cache to help;
// any length is correct. Not safe for concurrent use.
type SHA256dMidstate struct {
	state  []byte // marshaled digest state after absorbing the prefix
	h      hash.Hash
	unm    encoding.BinaryUnmarshaler
	sumbuf [sha256.Size]byte // scratch for the first hash's output

	// Pre-padded-block fast path. When the prefix is block-aligned and
	// the tail fits one padded block, each hash is fed a complete final
	// block (message ‖ 0x80 ‖ zeros ‖ bit length) so the digest
	// compresses it in place, and the output is read straight from the
	// marshaled state words — skipping Sum's state copy and checkSum's
	// padding pass on both hashes. The layout assumptions (a full-block
	// Write compresses immediately; the marshaled form is
	// magic ‖ state words ‖ buffer ‖ length, with the big-endian state
	// words at bytes 4..36 equal to the digest) are verified against the
	// portable path in the constructor, which disables this path on any
	// mismatch.
	fastOK    bool
	app       encoding.BinaryAppender
	scratch   []byte   // marshaled-state buffer reused across attempts
	block1    [64]byte // final block of hash one: tail + padding
	block2    [64]byte // only block of hash two: digest one + padding
	prefixLen uint64
	tailLen   int // tail length block1's padding encodes; -1 = unset
}

// marshaled sha256 digest layout: magic(4) ‖ h[8]·4 ‖ x[64] ‖ len(8).
const (
	sha256StateLo   = 4
	sha256StateHi   = 36
	sha256StateSize = 108
)

// NewSHA256dMidstate absorbs prefix and captures the resulting state.
func NewSHA256dMidstate(prefix []byte) *SHA256dMidstate {
	h := sha256.New()
	h.Write(prefix)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		// The standard library digest cannot fail to marshal.
		panic("chaincrypto: sha256 midstate marshal: " + err.Error())
	}
	fresh := sha256.New()
	ms := &SHA256dMidstate{
		state:     state,
		h:         fresh,
		unm:       fresh.(encoding.BinaryUnmarshaler),
		prefixLen: uint64(len(prefix)),
		tailLen:   -1,
	}
	if app, ok := fresh.(encoding.BinaryAppender); ok && len(prefix)%sha256.BlockSize == 0 && len(state) == sha256StateSize {
		ms.app = app
		ms.scratch = make([]byte, 0, sha256StateSize)
		ms.block2[sha256.Size] = 0x80
		binary.BigEndian.PutUint64(ms.block2[56:], sha256.Size*8)
		ms.fastOK = true
		// Self-check against the portable path; a probe long enough to
		// exercise the padding boundaries.
		probe := []byte("midstate-fast-path-self-check")
		want := DoubleHash(append(append([]byte{}, prefix...), probe...))
		if ms.sumDoubleFast(probe) != want {
			ms.fastOK = false
			ms.tailLen = -1
		}
	}
	return ms
}

// SumDouble returns SHA256d(prefix || tail).
func (ms *SHA256dMidstate) SumDouble(tail []byte) Digest {
	if ms.fastOK && len(tail) < sha256.BlockSize-8 {
		return ms.sumDoubleFast(tail)
	}
	if err := ms.unm.UnmarshalBinary(ms.state); err != nil {
		panic("chaincrypto: sha256 midstate restore: " + err.Error())
	}
	ms.h.Write(tail)
	first := ms.h.Sum(ms.sumbuf[:0])
	return sha256.Sum256(first)
}

// sumDoubleFast is SumDouble via pre-padded blocks: two compressions and
// no digest finalization bookkeeping. Requires fastOK and a tail short
// enough that message-end padding fits its final block.
func (ms *SHA256dMidstate) sumDoubleFast(tail []byte) Digest {
	if len(tail) != ms.tailLen {
		// (Re)write block one's padding for this tail length. Across a
		// mining run the tail length is fixed, so this runs once.
		ms.tailLen = len(tail)
		for i := ms.tailLen; i < 56; i++ {
			ms.block1[i] = 0
		}
		ms.block1[ms.tailLen] = 0x80
		binary.BigEndian.PutUint64(ms.block1[56:], (ms.prefixLen+uint64(ms.tailLen))*8)
	}
	copy(ms.block1[:ms.tailLen], tail)
	if err := ms.unm.UnmarshalBinary(ms.state); err != nil {
		panic("chaincrypto: sha256 midstate restore: " + err.Error())
	}
	ms.h.Write(ms.block1[:])
	b, _ := ms.app.AppendBinary(ms.scratch[:0])
	copy(ms.block2[:sha256.Size], b[sha256StateLo:sha256StateHi])
	ms.h.Reset()
	ms.h.Write(ms.block2[:])
	b, _ = ms.app.AppendBinary(b[:0])
	ms.scratch = b
	var d Digest
	copy(d[:], b[sha256StateLo:sha256StateHi])
	return d
}

// ---------------------------------------------------------------------------
// Signatures

// Keyring maps every node in a cluster to an Ed25519 key pair and holds
// the public directory. Simulations generate the ring deterministically
// from a seed so experiments replay bit-identically.
type Keyring struct {
	pub  map[types.NodeID]ed25519.PublicKey
	priv map[types.NodeID]ed25519.PrivateKey
}

// NewKeyring creates key pairs for node IDs 0..n-1 derived from seed.
func NewKeyring(n int, seed uint64) *Keyring {
	kr := &Keyring{
		pub:  make(map[types.NodeID]ed25519.PublicKey, n),
		priv: make(map[types.NodeID]ed25519.PrivateKey, n),
	}
	for i := 0; i < n; i++ {
		kr.AddNode(types.NodeID(i), seed)
	}
	return kr
}

// AddNode derives and registers a key pair for id.
func (k *Keyring) AddNode(id types.NodeID, seed uint64) {
	material := Hash([]byte("fortyconsensus-key"), HashUint64(seed), HashUint64(uint64(id)))
	priv := ed25519.NewKeyFromSeed(material[:])
	k.priv[id] = priv
	k.pub[id] = priv.Public().(ed25519.PublicKey)
}

// Sign signs msg as node id. It panics if id has no key, which is always
// a harness bug rather than a runtime condition.
func (k *Keyring) Sign(id types.NodeID, msg []byte) []byte {
	priv, ok := k.priv[id]
	if !ok {
		panic(fmt.Sprintf("chaincrypto: no key for %v", id))
	}
	return ed25519.Sign(priv, msg)
}

// Verify checks that sig is node id's signature over msg.
func (k *Keyring) Verify(id types.NodeID, msg, sig []byte) bool {
	pub, ok := k.pub[id]
	if !ok {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// ---------------------------------------------------------------------------
// Quorum certificates (threshold-signature substitute)

// PartialSig is one node's vote share over a message digest.
type PartialSig struct {
	Node types.NodeID
	Sig  []byte
}

// QC is a quorum certificate: k distinct valid signatures over one
// digest. It plays the role of HotStuff's (k,n)-threshold signature —
// constant-size is sacrificed, the n→1→n communication shape is kept.
type QC struct {
	Digest Digest
	Sigs   []PartialSig
}

// ErrBadQC reports a certificate that fails verification.
var ErrBadQC = errors.New("chaincrypto: invalid quorum certificate")

// Aggregate builds a QC over digest from the given shares, deduplicating
// signers and discarding invalid shares. It returns ErrBadQC if fewer
// than k valid distinct shares remain.
func Aggregate(kr *Keyring, digest Digest, shares []PartialSig, k int) (QC, error) {
	seen := make(map[types.NodeID]bool)
	var kept []PartialSig
	for _, s := range shares {
		if seen[s.Node] || !kr.Verify(s.Node, digest[:], s.Sig) {
			continue
		}
		seen[s.Node] = true
		kept = append(kept, s)
	}
	if len(kept) < k {
		return QC{}, fmt.Errorf("%w: %d/%d valid shares", ErrBadQC, len(kept), k)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Node < kept[j].Node })
	return QC{Digest: digest, Sigs: kept[:k]}, nil
}

// VerifyQC checks that qc carries at least k valid distinct signatures
// over its digest.
func VerifyQC(kr *Keyring, qc QC, k int) error {
	seen := make(map[types.NodeID]bool)
	valid := 0
	for _, s := range qc.Sigs {
		if seen[s.Node] {
			continue
		}
		seen[s.Node] = true
		if kr.Verify(s.Node, qc.Digest[:], s.Sig) {
			valid++
		}
	}
	if valid < k {
		return fmt.Errorf("%w: %d/%d valid shares", ErrBadQC, valid, k)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Merkle trees

// MerkleRoot computes the Bitcoin-style Merkle root of the given leaf
// payloads: leaves are SHA256d-hashed, odd levels duplicate the last
// node, and an empty set hashes to the zero digest.
func MerkleRoot(leaves [][]byte) Digest {
	if len(leaves) == 0 {
		return Digest{}
	}
	level := make([]Digest, len(leaves))
	for i, l := range leaves {
		level[i] = DoubleHash(l)
	}
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		next := make([]Digest, 0, len(level)/2)
		for i := 0; i < len(level); i += 2 {
			next = append(next, DoubleHash(level[i][:], level[i+1][:]))
		}
		level = next
	}
	return level[0]
}
