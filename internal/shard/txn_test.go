package shard

import (
	"encoding/binary"
	"fmt"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

func TestTxnCmdRoundTrips(t *testing.T) {
	cases := []Cmd{
		Apply(1, []kvstore.Command{kvstore.Put("a", []byte("1"))}),
		Apply(2, []kvstore.Command{kvstore.Get("a"), kvstore.Delete("b"), kvstore.Command{Op: kvstore.OpNoop}}),
		Prepare(3, []kvstore.Command{kvstore.CAS("k", []byte("x"), []byte("y")), kvstore.Incr("n", -7)}),
		Prepare(4, nil),
		Commit(5),
		Abort(6),
		VoteAbort(7),
		VoteAbort(1 << 62),
		Apply(1<<60, []kvstore.Command{kvstore.Put("", nil)}),
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			got, err := DecodeCmd(c.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != c.Kind || got.Tx != c.Tx {
				t.Fatalf("header round trip: got %+v, want %+v", got, c)
			}
			if len(got.Cmds) != len(c.Cmds) {
				t.Fatalf("cmd count %d, want %d", len(got.Cmds), len(c.Cmds))
			}
			for j := range c.Cmds {
				if !got.Cmds[j].Encode().Equal(c.Cmds[j].Encode()) {
					t.Fatalf("cmd %d round trip mismatch", j)
				}
			}
		})
	}
}

// TestTxnDecodeRejectsMalformed is the table of hand-built corruptions:
// every structural invariant the decoder checks has a case, and each
// must return ErrDecode without panicking.
func TestTxnDecodeRejectsMalformed(t *testing.T) {
	prepare := Prepare(9, []kvstore.Command{kvstore.Put("k", []byte("v")), kvstore.Get("k")}).Encode()
	voteAbort := VoteAbort(9).Encode()

	oversized := func() types.Value {
		// Count prefix claims MaxTxnOps+1 commands.
		b := Prepare(9, nil).Encode().Clone()
		binary.BigEndian.PutUint16(b[9:], MaxTxnOps+1)
		return b
	}()
	hugeLen := func() types.Value {
		// First command's length prefix claims 4 GiB.
		b := prepare.Clone()
		binary.BigEndian.PutUint32(b[11:], 0xFFFFFFFF)
		return b
	}()
	trailing := append(Commit(9).Encode().Clone(), 0x00)
	countOverrun := func() types.Value {
		// Count says 3 but only 2 commands are present.
		b := prepare.Clone()
		binary.BigEndian.PutUint16(b[9:], 3)
		return b
	}()

	cases := []struct {
		name string
		in   types.Value
	}{
		{"nil", nil},
		{"empty", types.Value{}},
		{"kind-only", prepare[:1]},
		{"header-minus-1", prepare[:8]},
		{"prepare-no-count", prepare[:9]},
		{"prepare-half-count", prepare[:10]},
		{"prepare-truncated-len", prepare[:13]},
		{"prepare-truncated-cmd", prepare[:len(prepare)-1]},
		{"prepare-count-overrun", countOverrun},
		{"prepare-oversized-count", oversized},
		{"prepare-huge-cmd-len", hugeLen},
		{"prepare-trailing-garbage", append(prepare.Clone(), 0xAB)},
		{"commit-trailing-byte", trailing},
		{"vote-abort-truncated-tx", voteAbort[:8]},
		{"vote-abort-trailing-garbage", append(voteAbort.Clone(), 0x01)},
		{"unknown-kind", types.Value{0xDD, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"kvstore-cmd-rejected", func() types.Value {
			// Inner payload is a valid length prefix around garbage the
			// kvstore decoder rejects.
			b := Prepare(9, nil).Encode().Clone()
			binary.BigEndian.PutUint16(b[9:], 1)
			b = binary.BigEndian.AppendUint32(b, 3)
			return append(b, 0xFF, 0xFF, 0xFF)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeCmd(tc.in); err == nil {
				t.Fatalf("decoded corrupt input %x", tc.in)
			}
		})
	}
}

// TestTxnDecodeSeededMutationsNeverPanic is the fuzz-shaped sweep:
// deterministic seeded byte flips, truncations, and splices over valid
// encodings. Decode may accept or reject, but must never panic and
// must never return a command that re-encodes to something new that
// fails to decode (encode∘decode is a fixpoint on accepted inputs).
func TestTxnDecodeSeededMutationsNeverPanic(t *testing.T) {
	seeds := []types.Value{
		Apply(11, []kvstore.Command{kvstore.Put("key-000001", []byte("payload")), kvstore.Incr("n", 3)}).Encode(),
		Prepare(12, []kvstore.Command{kvstore.CAS("k", nil, []byte("v"))}).Encode(),
		Commit(13).Encode(),
		VoteAbort(14).Encode(),
	}
	r := simnet.NewRNG(0xF0F0)
	for round := 0; round < 2000; round++ {
		base := seeds[r.Intn(len(seeds))].Clone()
		switch r.Intn(3) {
		case 0: // flip a byte
			base[r.Intn(len(base))] ^= byte(1 + r.Intn(255))
		case 1: // truncate
			base = base[:r.Intn(len(base)+1)]
		case 2: // append garbage
			for n := r.Intn(6); n > 0; n-- {
				base = append(base, byte(r.Intn(256)))
			}
		}
		c, err := DecodeCmd(base)
		if err != nil {
			continue
		}
		if _, err := DecodeCmd(c.Encode()); err != nil {
			t.Fatalf("accepted input %x re-encoded to an undecodable command", base)
		}
	}
}

func TestIsTxnCmdBoundaries(t *testing.T) {
	if IsTxnCmd(nil) || IsTxnCmd(types.Value{}) {
		t.Fatal("empty values are not txn commands")
	}
	for _, kind := range []uint8{TxApply, TxPrepare, TxCommit, TxAbort, TxVoteAbort} {
		if !IsTxnCmd(types.Value{kind}) {
			t.Fatalf("kind 0x%X not recognized", kind)
		}
	}
	if IsTxnCmd(types.Value{TxApply - 1}) || IsTxnCmd(types.Value{TxVoteAbort + 1}) {
		t.Fatal("out-of-range kinds recognized as txn commands")
	}
	if IsTxnCmd(kvstore.Put("k", []byte("v")).Encode()) {
		t.Fatal("plain kvstore command misclassified")
	}
}
