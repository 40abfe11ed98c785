package chaincrypto

import (
	"bytes"
	"testing"

	"fortyconsensus/internal/types"
)

func TestHashDeterminism(t *testing.T) {
	a := Hash([]byte("hello"), []byte("world"))
	b := Hash([]byte("hello"), []byte("world"))
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if a == Hash([]byte("helloworld!")) {
		t.Fatal("distinct inputs collide trivially")
	}
	if a == (Digest{}) {
		t.Fatal("real hash reads as zero")
	}
	if a.String() == "" {
		t.Fatal("digest string empty")
	}
}

func TestDoubleHashDiffersFromSingle(t *testing.T) {
	if DoubleHash([]byte("x")) == Hash([]byte("x")) {
		t.Fatal("SHA256d equals single SHA256")
	}
}

func TestKeyringSignVerify(t *testing.T) {
	kr := NewKeyring(4, 42)
	msg := []byte("commit cert")
	sig := kr.Sign(2, msg)
	if !kr.Verify(2, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if kr.Verify(3, msg, sig) {
		t.Fatal("signature accepted for wrong signer")
	}
	if kr.Verify(2, []byte("other"), sig) {
		t.Fatal("signature accepted for wrong message")
	}
	if kr.Verify(99, msg, sig) {
		t.Fatal("unknown node verified")
	}
}

func TestKeyringDeterministicFromSeed(t *testing.T) {
	a, b := NewKeyring(3, 7), NewKeyring(3, 7)
	if !bytes.Equal(a.Sign(0, []byte("m")), b.Sign(0, []byte("m"))) {
		t.Fatal("same seed produced different keys")
	}
	c := NewKeyring(3, 8)
	if bytes.Equal(a.Sign(0, []byte("m")), c.Sign(0, []byte("m"))) {
		t.Fatal("different seeds produced equal keys")
	}
}

func TestKeyringSignPanicsOnUnknown(t *testing.T) {
	kr := NewKeyring(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Sign for unknown node did not panic")
		}
	}()
	kr.Sign(9, []byte("m"))
}

func TestQCAggregateAndVerify(t *testing.T) {
	kr := NewKeyring(4, 9)
	d := Hash([]byte("block"))
	var shares []PartialSig
	for i := 0; i < 4; i++ {
		shares = append(shares, PartialSig{Node: types.NodeID(i), Sig: kr.Sign(types.NodeID(i), d[:])})
	}
	qc, err := Aggregate(kr, d, shares, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(qc.Sigs) != 3 {
		t.Fatalf("QC kept %d sigs, want exactly k=3", len(qc.Sigs))
	}
	if err := VerifyQC(kr, qc, 3); err != nil {
		t.Fatal(err)
	}
}

func TestQCRejectsForgeries(t *testing.T) {
	kr := NewKeyring(4, 9)
	d := Hash([]byte("block"))
	good := PartialSig{Node: 0, Sig: kr.Sign(0, d[:])}
	bad := PartialSig{Node: 1, Sig: []byte("garbage")}
	dupe := good
	if _, err := Aggregate(kr, d, []PartialSig{good, bad, dupe}, 2); err == nil {
		t.Fatal("aggregated despite only one valid distinct share")
	}
	// A QC with duplicated signers must not pass k=2.
	qc := QC{Digest: d, Sigs: []PartialSig{good, good}}
	if err := VerifyQC(kr, qc, 2); err == nil {
		t.Fatal("verified QC with duplicate signer")
	}
}

func TestQCWrongDigestFails(t *testing.T) {
	kr := NewKeyring(4, 9)
	d1, d2 := Hash([]byte("a")), Hash([]byte("b"))
	shares := []PartialSig{
		{Node: 0, Sig: kr.Sign(0, d1[:])},
		{Node: 1, Sig: kr.Sign(1, d1[:])},
	}
	if _, err := Aggregate(kr, d2, shares, 2); err == nil {
		t.Fatal("aggregated shares over the wrong digest")
	}
}

func TestMerkleRootProperties(t *testing.T) {
	if MerkleRoot(nil) != (Digest{}) {
		t.Fatal("empty tree root not zero")
	}
	one := MerkleRoot([][]byte{[]byte("tx1")})
	if one != DoubleHash([]byte("tx1")) {
		t.Fatal("single-leaf root should be the leaf hash")
	}
	r1 := MerkleRoot([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	r2 := MerkleRoot([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if r1 != r2 {
		t.Fatal("root not deterministic")
	}
	r3 := MerkleRoot([][]byte{[]byte("a"), []byte("x"), []byte("c")})
	if r1 == r3 {
		t.Fatal("tampered leaf kept the same root")
	}
}

func TestSHA256dMidstateMatchesDoubleHash(t *testing.T) {
	mkbytes := func(n int, fill byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = fill + byte(i)
		}
		return b
	}
	// Prefix lengths cover the fast path (block-aligned) and the
	// portable fallback; tail lengths cover both sides of the
	// one-padded-block boundary (55 fits, 56 does not).
	for _, plen := range []int{0, 13, 64, 100, 128} {
		prefix := mkbytes(plen, 3)
		ms := NewSHA256dMidstate(prefix)
		for _, tlen := range []int{0, 1, 20, 55, 56, 64, 100} {
			tail := mkbytes(tlen, 0x40)
			want := DoubleHash(append(append([]byte{}, prefix...), tail...))
			if got := ms.SumDouble(tail); got != want {
				t.Fatalf("prefix %d tail %d: SumDouble %x want %x", plen, tlen, got, want)
			}
		}
		// Re-summing with a mutated tail must reflect the new bytes
		// (the cached padding and state restore are per-attempt).
		tail := mkbytes(20, 0x77)
		for i := 0; i < 3; i++ {
			tail[i] = byte(0xA0 + i)
			want := DoubleHash(append(append([]byte{}, prefix...), tail...))
			if got := ms.SumDouble(tail); got != want {
				t.Fatalf("prefix %d mutation %d: SumDouble mismatch", plen, i)
			}
		}
	}
}
