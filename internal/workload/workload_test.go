package workload

import (
	"strings"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
)

// Uniform picks keys uniformly at random.
type Uniform struct {
	N   int
	RNG *simnet.RNG
}

func (u *Uniform) Next() int { return u.RNG.Intn(u.N) }

func TestUniformCoversKeySpace(t *testing.T) {
	u := &Uniform{N: 10, RNG: simnet.NewRNG(1)}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		k := u.Next()
		if k < 0 || k >= 10 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 10 {
		t.Fatalf("uniform hit only %d/10 keys", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 0.99, simnet.NewRNG(2))
	counts := make([]int, 100)
	const draws = 20000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Hot key dominates: rank 0 should see far more traffic than rank 50.
	if counts[0] < 5*counts[50] {
		t.Fatalf("no skew: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// The head (top 10) should hold the majority of accesses at s≈1.
	head := 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	if head < draws/2 {
		t.Fatalf("head holds %d/%d", head, draws)
	}
}

func TestKVGeneratorShape(t *testing.T) {
	rng := simnet.NewRNG(3)
	g := NewKV(7, &Uniform{N: 50, RNG: rng.Fork()}, 0.6, 32, rng)
	reads, writes := 0, 0
	for i := 0; i < 2000; i++ {
		r := g.Next()
		if r.Client != 7 || r.SeqNo != uint64(i+1) {
			t.Fatalf("request identity wrong: %+v", r)
		}
		cmd, err := kvstore.Decode(r.Op)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(cmd.Key, "key-") {
			t.Fatalf("key %q", cmd.Key)
		}
		switch cmd.Op {
		case kvstore.OpGet:
			reads++
		case kvstore.OpPut:
			writes++
			if len(cmd.Value) != 32 {
				t.Fatalf("value size %d", len(cmd.Value))
			}
		default:
			t.Fatalf("unexpected op %d", cmd.Op)
		}
	}
	if reads < 1000 || reads > 1400 {
		t.Fatalf("read fraction off: %d/2000 reads", reads)
	}
	if g.seq != 2000 {
		t.Fatalf("issued = %d", g.seq)
	}
	// Requests must round-trip through the SMR codec.
	r := g.Next()
	dec, err := smr.DecodeRequest(smr.EncodeRequest(r))
	if err != nil || dec.SeqNo != r.SeqNo {
		t.Fatalf("smr round trip failed: %v", err)
	}
}

func TestBankTransfers(t *testing.T) {
	b := NewBank(100, simnet.NewRNG(4))
	debited := map[int]bool{}
	for i := 0; i < 2000; i++ {
		tr := b.Next()
		if tr.From == tr.To {
			t.Fatal("self transfer")
		}
		if tr.From < 0 || tr.From >= 100 || tr.To < 0 || tr.To >= 100 {
			t.Fatalf("account out of range: %+v", tr)
		}
		if tr.Amount < 1 || tr.Amount > 100 {
			t.Fatalf("amount %d", tr.Amount)
		}
		debited[tr.From] = true
	}
	if len(debited) < 90 {
		t.Fatalf("degenerate mix: %d of 100 accounts ever debited", len(debited))
	}
}

func TestBankDegenerateParams(t *testing.T) {
	b := NewBank(1, simnet.NewRNG(5)) // clamped to 2 accounts
	tr := b.Next()
	if tr.From == tr.To || tr.From > 1 || tr.To > 1 {
		t.Fatalf("clamped generator broken: %+v", tr)
	}
}

func TestAccountKeyStable(t *testing.T) {
	if AccountKey(7) != "acct-000007" {
		t.Fatalf("AccountKey = %q", AccountKey(7))
	}
}
