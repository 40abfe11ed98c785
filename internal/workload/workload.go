// Package workload generates the client request streams driving the
// experiments: key-value operations over uniform or Zipfian key
// distributions (the standard skewed access pattern for data management
// benchmarks) and a bank-transfer workload for the atomic-commitment
// experiments.
package workload

import (
	"fmt"
	"math"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// KeyDist selects keys for generated operations.
type KeyDist interface {
	// Next returns a key index in [0, key-space size).
	Next() int
}

// Zipf picks keys with Zipfian skew s over N keys using inverse-CDF
// sampling on a precomputed table; s≈0.99 is the YCSB default.
type Zipf struct {
	n   int
	cdf []float64
	rng *simnet.RNG
}

// NewZipf builds a Zipfian distribution over n keys with exponent s.
func NewZipf(n int, s float64, rng *simnet.RNG) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{n: n, cdf: cdf, rng: rng}
}

func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// KV generates kvstore commands with a configurable read fraction.
type KV struct {
	Dist      KeyDist
	ReadFrac  float64 // fraction of GETs; remainder are PUTs
	ValueSize int     // bytes per written value
	rng       *simnet.RNG
	client    types.ClientID
	seq       uint64
}

// NewKV builds a generator for one client.
func NewKV(client types.ClientID, dist KeyDist, readFrac float64, valueSize int, rng *simnet.RNG) *KV {
	if valueSize <= 0 {
		valueSize = 16
	}
	return &KV{Dist: dist, ReadFrac: readFrac, ValueSize: valueSize, rng: rng, client: client}
}

// Next produces the next client request.
func (g *KV) Next() types.Request {
	g.seq++
	key := fmt.Sprintf("key-%06d", g.Dist.Next())
	var cmd kvstore.Command
	if g.rng.Bool(g.ReadFrac) {
		cmd = kvstore.Get(key)
	} else {
		val := make([]byte, g.ValueSize)
		for i := range val {
			val[i] = byte('a' + g.rng.Intn(26))
		}
		cmd = kvstore.Put(key, val)
	}
	return types.Request{Client: g.client, SeqNo: g.seq, Op: cmd.Encode()}
}

// Transfer is one bank transfer between two accounts — the
// Spanner-style 2PC workload. Where an account lives is the service's
// partition map's to say.
type Transfer struct {
	From, To int // account indices
	Amount   int64
}

// Bank generates transfers over accounts.
type Bank struct {
	Accounts int
	rng      *simnet.RNG
}

// NewBank builds a transfer generator.
func NewBank(accounts int, rng *simnet.RNG) *Bank {
	if accounts < 2 {
		accounts = 2
	}
	return &Bank{Accounts: accounts, rng: rng}
}

// Next produces a transfer between two distinct accounts.
func (b *Bank) Next() Transfer {
	from := b.rng.Intn(b.Accounts)
	to := b.rng.Intn(b.Accounts - 1)
	if to >= from {
		to++
	}
	return Transfer{From: from, To: to, Amount: int64(1 + b.rng.Intn(100))}
}

// AccountKey names the kvstore key holding an account balance.
func AccountKey(account int) string { return fmt.Sprintf("acct-%06d", account) }
