package workload

import (
	"fmt"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/simnet"
)

// Txn is one generated multi-key transaction.
type Txn struct {
	Cmds  []kvstore.Command
	Keys  []string
	Cross bool // spans more than one shard under the generator's router
}

// TxnMix generates multi-key transactions for the sharded KV: each
// transaction touches KeysPerTxn distinct keys drawn from Dist, and
// CrossFrac of transactions are forced to span at least two shards
// (the rest are pinned to one, exercising the single-shard fast path).
// Shard placement is decided by the caller's route function — normally
// shard.PartitionMap.Shard — so the generator and the service agree on
// the partition map without this package importing it.
type TxnMix struct {
	dist       KeyDist
	keysPerTxn int
	crossFrac  float64
	writeFrac  float64
	route      func(string) int
	shards     int
	rng        *simnet.RNG
	issued     int
}

// NewTxnMix builds a transactional workload generator. keysPerTxn
// below 2 is raised to 2 (a one-key transaction cannot be multi-key).
func NewTxnMix(shards, keysPerTxn int, crossFrac, writeFrac float64, dist KeyDist, route func(string) int, rng *simnet.RNG) *TxnMix {
	if keysPerTxn < 2 {
		keysPerTxn = 2
	}
	if shards < 1 {
		shards = 1
	}
	return &TxnMix{
		dist: dist, keysPerTxn: keysPerTxn, crossFrac: crossFrac,
		writeFrac: writeFrac, route: route, shards: shards, rng: rng,
	}
}

// TxnKey renders the canonical key name for a key index.
func TxnKey(i int) string { return fmt.Sprintf("key-%06d", i) }

// Next produces the next transaction. Keys are distinct within a
// transaction; shard spread is adjusted by bounded redraws, so a
// degenerate distribution can only soften the cross-shard fraction,
// never hang the generator.
func (m *TxnMix) Next() Txn {
	m.issued++
	wantCross := m.shards > 1 && m.rng.Bool(m.crossFrac)
	keys := m.drawKeys(wantCross)
	t := Txn{Keys: keys}
	seen := map[int]bool{}
	for _, k := range keys {
		seen[m.route(k)] = true
	}
	t.Cross = len(seen) > 1
	for i, k := range keys {
		if i > 0 && !m.rng.Bool(m.writeFrac) {
			t.Cmds = append(t.Cmds, kvstore.Get(k))
			continue
		}
		t.Cmds = append(t.Cmds, kvstore.Put(k, []byte(fmt.Sprintf("t%d-%d", m.issued, i))))
	}
	return t
}

// drawKeys picks keysPerTxn distinct keys, steering the set toward (or
// away from) spanning shards with up to 16 redraws per slot.
func (m *TxnMix) drawKeys(wantCross bool) []string {
	keys := make([]string, 0, m.keysPerTxn)
	used := map[string]bool{}
	for len(keys) < m.keysPerTxn {
		k := TxnKey(m.dist.Next())
		if used[k] {
			continue
		}
		if len(keys) > 0 {
			same := m.route(k) == m.route(keys[0])
			last := len(keys) == m.keysPerTxn-1
			for tries := 0; tries < 16; tries++ {
				if wantCross && last && m.spread(keys) == 1 && same {
					// Final slot must break out of the first shard.
				} else if !wantCross && !same {
					// Single-shard txn: keep every key on shard(keys[0]).
				} else {
					break
				}
				k = TxnKey(m.dist.Next())
				if used[k] {
					continue
				}
				same = m.route(k) == m.route(keys[0])
			}
			if used[k] {
				continue
			}
		}
		used[k] = true
		keys = append(keys, k)
	}
	return keys
}

// spread counts distinct shards across keys.
func (m *TxnMix) spread(keys []string) int {
	seen := map[int]bool{}
	for _, k := range keys {
		seen[m.route(k)] = true
	}
	return len(seen)
}
