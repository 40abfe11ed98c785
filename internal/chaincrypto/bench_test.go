package chaincrypto

import (
	"testing"

	"fortyconsensus/internal/types"
)

// BenchmarkQCAggregate measures quorum-certificate formation — the
// threshold-signature substitute HotStuff leaders pay per view.
func BenchmarkQCAggregate(b *testing.B) {
	kr := NewKeyring(7, 1)
	d := Hash([]byte("block"))
	shares := make([]PartialSig, 7)
	for i := range shares {
		shares[i] = PartialSig{Node: types.NodeID(i), Sig: kr.Sign(types.NodeID(i), d[:])}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Aggregate(kr, d, shares, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyQC measures certificate verification at receivers.
func BenchmarkVerifyQC(b *testing.B) {
	kr := NewKeyring(7, 1)
	d := Hash([]byte("block"))
	shares := make([]PartialSig, 7)
	for i := range shares {
		shares[i] = PartialSig{Node: types.NodeID(i), Sig: kr.Sign(types.NodeID(i), d[:])}
	}
	qc, _ := Aggregate(kr, d, shares, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyQC(kr, qc, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerkleRoot measures block-body hashing (32 txs).
func BenchmarkMerkleRoot(b *testing.B) {
	leaves := make([][]byte, 32)
	for i := range leaves {
		leaves[i] = make([]byte, 64)
		leaves[i][0] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if MerkleRoot(leaves) == (Digest{}) {
			b.Fatal("zero root")
		}
	}
}

// BenchmarkDoubleHash84 is the naive mining attempt: SHA256d over a
// full 84-byte header equivalent (three compressions for hash one).
func BenchmarkDoubleHash84(b *testing.B) {
	msg := make([]byte, 84)
	for i := 0; i < b.N; i++ {
		msg[80] = byte(i)
		if DoubleHash(msg) == (Digest{}) {
			b.Fatal("zero digest")
		}
	}
}

// BenchmarkSHA256dMidstate is the mining attempt the PoW experiments
// actually pay: constant 64-byte prefix cached, 20-byte tail varying.
func BenchmarkSHA256dMidstate(b *testing.B) {
	msg := make([]byte, 84)
	ms := NewSHA256dMidstate(msg[:64])
	tail := msg[64:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tail[16] = byte(i)
		if ms.SumDouble(tail) == (Digest{}) {
			b.Fatal("zero digest")
		}
	}
}
