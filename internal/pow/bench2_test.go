package pow

import "testing"

// BenchmarkHashRate measures raw header double-SHA256 throughput — the
// mining primitive.
func BenchmarkHashRate(b *testing.B) {
	h := Header{Version: 2, Bits: 0x1f00ffff}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Nonce = uint32(i)
		_ = h.Hash()
	}
}

// BenchmarkMineBlock measures grinding one block at laptop difficulty.
func BenchmarkMineBlock(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		c := NewChain(p)
		blk := &Block{
			Header: Header{Version: 2, PrevHash: c.genesis, Bits: c.NextBits(), Timestamp: uint64(i)},
			Txs:    []Tx{CoinbaseFor(i, 1, 50)},
		}
		blk.Header.MerkleRoot = blk.MerkleRoot()
		target := CompactToTarget(blk.Header.Bits)
		for !HashMeetsTarget(blk.Hash(), target) {
			blk.Header.Nonce++
		}
	}
}
