package workload

import (
	"hash/fnv"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/simnet"
)

// testRoute is a stand-in for shard.PartitionMap.Shard with the same
// shape (FNV-1a mod shards) so these tests need no shard import.
func testRoute(shards int) func(string) int {
	return func(key string) int {
		h := fnv.New32a()
		h.Write([]byte(key))
		return int(h.Sum32() % uint32(shards))
	}
}

func newMix(shards int, crossFrac, writeFrac float64, seed uint64) *TxnMix {
	rng := simnet.NewRNG(seed)
	dist := &Uniform{N: 200, RNG: rng}
	return NewTxnMix(shards, 3, crossFrac, writeFrac, dist, testRoute(shards), rng)
}

func TestTxnMixDeterministic(t *testing.T) {
	a, b := newMix(4, 0.5, 0.5, 42), newMix(4, 0.5, 0.5, 42)
	for i := 0; i < 100; i++ {
		ta, tb := a.Next(), b.Next()
		if len(ta.Cmds) != len(tb.Cmds) || ta.Cross != tb.Cross {
			t.Fatalf("txn %d diverged: %+v vs %+v", i, ta, tb)
		}
		for j := range ta.Cmds {
			if !ta.Cmds[j].Encode().Equal(tb.Cmds[j].Encode()) {
				t.Fatalf("txn %d cmd %d diverged", i, j)
			}
		}
	}
	if a.issued != 100 {
		t.Fatalf("issued = %d", a.issued)
	}
}

func TestTxnMixKeysDistinct(t *testing.T) {
	m := newMix(4, 0.5, 1.0, 7)
	for i := 0; i < 200; i++ {
		txn := m.Next()
		if len(txn.Keys) != 3 {
			t.Fatalf("txn %d has %d keys, want 3", i, len(txn.Keys))
		}
		seen := map[string]bool{}
		for _, k := range txn.Keys {
			if seen[k] {
				t.Fatalf("txn %d repeats key %q", i, k)
			}
			seen[k] = true
		}
	}
}

func TestTxnMixCrossFractionExtremes(t *testing.T) {
	route := testRoute(4)
	// crossFrac 0: almost every transaction stays on one shard. The
	// steering is bounded (16 redraws per slot, so it can never hang on
	// a degenerate distribution), which leaves a ~1%-per-slot leak —
	// and every leak must still be labelled Cross honestly.
	m := newMix(4, 0, 1.0, 11)
	leaked := 0
	for i := 0; i < 200; i++ {
		txn := m.Next()
		spread := map[int]bool{}
		for _, k := range txn.Keys {
			spread[route(k)] = true
		}
		if txn.Cross != (len(spread) > 1) {
			t.Fatalf("txn %d mislabelled: Cross=%v but spans %d shard(s)", i, txn.Cross, len(spread))
		}
		if txn.Cross {
			leaked++
		}
	}
	if leaked > 20 {
		t.Fatalf("crossFrac 0 leaked %d/200 cross-shard txns", leaked)
	}
	// crossFrac 1: with 200 uniform keys over 4 shards the bounded
	// redraws virtually always find a second shard.
	m = newMix(4, 1, 1.0, 13)
	cross := 0
	for i := 0; i < 200; i++ {
		if m.Next().Cross {
			cross++
		}
	}
	if cross < 190 {
		t.Fatalf("crossFrac 1 produced only %d/200 cross-shard txns", cross)
	}
}

func TestTxnMixSingleShardNeverCross(t *testing.T) {
	m := newMix(1, 1, 0.5, 17)
	for i := 0; i < 50; i++ {
		if m.Next().Cross {
			t.Fatal("one-shard deployment generated a cross-shard txn")
		}
	}
}

func TestTxnMixWriteFraction(t *testing.T) {
	// First key is always a write (the transaction must mutate
	// something); later keys follow writeFrac.
	m := newMix(2, 0.5, 0.0, 19)
	for i := 0; i < 100; i++ {
		txn := m.Next()
		if txn.Cmds[0].Op != kvstore.OpPut {
			t.Fatalf("txn %d first cmd is %v, want put", i, txn.Cmds[0].Op)
		}
		for j, c := range txn.Cmds[1:] {
			if c.Op != kvstore.OpGet {
				t.Fatalf("txn %d cmd %d is %v, want get under writeFrac 0", i, j+1, c.Op)
			}
		}
	}
	m = newMix(2, 0.5, 1.0, 23)
	for i := 0; i < 100; i++ {
		for j, c := range m.Next().Cmds {
			if c.Op != kvstore.OpPut {
				t.Fatalf("txn %d cmd %d is %v, want put under writeFrac 1", i, j, c.Op)
			}
		}
	}
}

func TestTxnMixKeysPerTxnClamped(t *testing.T) {
	rng := simnet.NewRNG(1)
	m := NewTxnMix(2, 0, 0.5, 1.0, &Uniform{N: 50, RNG: rng}, testRoute(2), rng)
	if got := len(m.Next().Keys); got != 2 {
		t.Fatalf("keysPerTxn 0 clamped to %d, want 2", got)
	}
}

func TestTxnMixZipfSkewStillDistinct(t *testing.T) {
	// A heavily skewed distribution redraws the same hot keys; the
	// generator must still emit distinct keys and terminate.
	rng := simnet.NewRNG(3)
	m := NewTxnMix(2, 4, 0.5, 1.0, NewZipf(50, 1.2, rng), testRoute(2), rng)
	for i := 0; i < 100; i++ {
		txn := m.Next()
		seen := map[string]bool{}
		for _, k := range txn.Keys {
			if seen[k] {
				t.Fatalf("txn %d repeats key %q under zipf", i, k)
			}
			seen[k] = true
		}
	}
}
