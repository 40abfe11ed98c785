package explore

import (
	"fmt"
	"strings"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/types"
)

// The sharded-KV harness: the paper's full composition — consensus
// inside each shard, 2PC across them — under one fault surface. Node
// IDs 0..3*shards-1 are shard replicas (three per shard); the two IDs
// above them are the primary and recovery coordinators.

func init() {
	Register(Protocol{Name: "shard", Nodes: 8, MinNodes: 8, Horizon: 800, New: newShardEpisode})
}

func newShardEpisode(n int, seed uint64) *Episode {
	return shardEpisode(n, seed, false)
}

// shardTxnCadence spaces transaction waves far enough apart for a full
// prepare/propagate round plus coordinator retries between them.
const shardTxnCadence = 60

// shardEpisode builds the sharded-KV episode; unsafe swaps in the
// broken coordinator fixture (each shard's outcome shipped straight
// from its own vote) that campaign regression tests use to
// prove the atomic-commitment invariant can catch real violations.
func shardEpisode(n int, seed uint64, unsafe bool) *Episode {
	shards := (n - 2) / 3
	if shards < 1 {
		shards = 1
	}
	svc := shard.NewService(shard.Config{
		Shards: shards, Replicas: 3, Seed: seed, UnsafeCoordinator: unsafe,
	})
	trs := make([]*LogTracker, shards)
	for i := range trs {
		trs[i] = NewLogTracker(len(svc.Groups()[i].Stores()))
	}
	at := NewAtomicTracker()

	type marker struct {
		shard int
		key   string
		want  []byte
	}
	markers := map[commit.TxID]*marker{}
	probes := map[uint64]*marker{}
	var latched *Violation

	key := func(sh, wave int) string { return fmt.Sprintf("k%d-%d", sh, wave) }
	val := func(wave int) []byte { return []byte(fmt.Sprintf("v%d", wave)) }

	// Fingerprint runs every tick; reuse one scratch slice across calls.
	fps := make([]string, 0, shards+1)

	return &Episode{
		Target: svc,
		Tick: func(now int) {
			if now%shardTxnCadence == 5 {
				wave := now / shardTxnCadence
				a := wave % shards
				b := (a + 1) % shards
				mk := fmt.Sprintf("txm-%d", wave)
				cmds := map[int][]kvstore.Command{
					a: {kvstore.Put(mk, val(wave)), kvstore.Put(key(a, wave), val(wave))},
				}
				if b != a {
					cmds[b] = []kvstore.Command{kvstore.Put(key(b, wave), val(wave))}
				}
				tx := svc.SubmitPerShard(cmds)
				markers[tx] = &marker{shard: a, key: mk, want: val(wave)}
				if wave%4 == 3 && b != a {
					// Conflicting chaser: same key on shard b while the
					// wave txn's prepare-lock is still held, a disjoint
					// key on shard a — a guaranteed vote split. A safe
					// coordinator aborts it everywhere; the unsafe one
					// commits it on a and aborts it on b.
					svc.SubmitPerShard(map[int][]kvstore.Command{
						a: {kvstore.Put(key(a, wave)+"x", val(wave))},
						b: {kvstore.Put(key(b, wave), []byte("chaser"))},
					})
				}
				if wave%5 == 2 {
					// Single-shard fast path rides the same wave.
					svc.SubmitPerShard(map[int][]kvstore.Command{
						b: {kvstore.Put(key(b, wave)+"s", val(wave)), kvstore.Put(mk+"s", val(wave))},
					})
				}
			}
			svc.Step()
			for sh := 0; sh < shards; sh++ {
				for r, ds := range svc.TakeDecisions(sh) {
					trs[sh].Observe(r, ds)
				}
				for _, st := range svc.Groups()[sh].Stores() {
					at.Observe(sh, st.TakeEvents())
				}
			}
			// Read-your-writes probes: once a marked transaction
			// commits, read its marker back from the shard that wrote
			// it. The probe is a read, not a log entry: a leader serves it
			// only once a quorum has confirmed it still leads, at a commit
			// index past the TxCommit entry, so a correct shard must serve
			// the value — and a deposed leader that skipped the quorum
			// would not.
			if len(markers) > 0 { // most ticks carry none: skip the sorted-keys allocation
				for _, tx := range det.SortedKeys(markers) {
					if done, outcome := svc.TxDone(tx); done {
						m := markers[tx]
						delete(markers, tx)
						if outcome == commit.Committed {
							probes[svc.SubmitKVAt(m.shard, kvstore.Get(m.key))] = m
						}
					}
				}
			}
			if latched == nil {
				for _, r := range svc.TakeKVReplies() {
					m, ok := probes[r.SeqNo]
					if !ok {
						continue
					}
					delete(probes, r.SeqNo)
					if !r.Result.Equal(types.Value(m.want)) {
						latched = &Violation{
							Invariant: "read-your-writes",
							Detail: fmt.Sprintf("shard %d: key %q read %q after committing %q",
								m.shard, m.key, r.Result, m.want),
						}
					}
				}
			}
		},
		Check: func() *Violation {
			if latched != nil {
				return latched
			}
			for _, tr := range trs {
				if v := tr.Violation(); v != nil {
					return v
				}
			}
			return at.Violation()
		},
		Fingerprint: func() string {
			fps = fps[:0]
			for _, tr := range trs {
				fps = append(fps, tr.Fingerprint())
			}
			fps = append(fps, at.Fingerprint())
			return strings.Join(fps, "|")
		},
		Healthy: func() bool {
			return svc.Metrics().Done >= 1 && svc.OldestUnresolvedAge() < 400
		},
		Stats: svc.Stats,
	}
}

// AtomicTracker watches every replica's applied transaction
// transitions and holds the cross-shard atomic-commitment invariant:
// no transaction may commit on one shard and abort on another, and
// replicas of one shard may never disagree on a transaction's fate.
// Feeding it every replica's stream is deliberate redundancy — streams
// are a pure function of each shard's log, so any disagreement is a
// replication bug surfacing as an invariant hit.
type AtomicTracker struct {
	outcomes map[commit.TxID]map[int]commit.Outcome
	v        *Violation
}

// NewAtomicTracker returns an empty tracker.
func NewAtomicTracker() *AtomicTracker {
	return &AtomicTracker{outcomes: make(map[commit.TxID]map[int]commit.Outcome)}
}

// Observe folds one replica's drained events into the tracker.
func (t *AtomicTracker) Observe(sh int, evs []shard.Event) {
	for _, ev := range evs {
		var o commit.Outcome
		switch ev.Kind {
		case shard.EvCommitted:
			o = commit.Committed
		case shard.EvAborted, shard.EvVoteAbort:
			o = commit.Aborted
		default:
			continue
		}
		m := t.outcomes[ev.Tx]
		if m == nil {
			m = make(map[int]commit.Outcome)
			t.outcomes[ev.Tx] = m
		}
		prev, seen := m[sh]
		if !seen {
			m[sh] = o
		} else if prev != o && t.v == nil {
			t.v = &Violation{
				Invariant: "atomic-commitment",
				Detail: fmt.Sprintf("tx %d: shard %d applied both %v and %v",
					ev.Tx, sh, prev, o),
			}
		}
		if t.v == nil {
			t.check(ev.Tx, m)
		}
	}
}

func (t *AtomicTracker) check(tx commit.TxID, m map[int]commit.Outcome) {
	cSh, aSh := -1, -1
	for _, sh := range det.SortedKeys(m) {
		switch m[sh] {
		case commit.Committed:
			cSh = sh
		case commit.Aborted:
			aSh = sh
		}
	}
	if cSh >= 0 && aSh >= 0 {
		t.v = &Violation{
			Invariant: "atomic-commitment",
			Detail: fmt.Sprintf("tx %d: shard %d committed, shard %d aborted",
				tx, cSh, aSh),
		}
	}
}

// Violation returns the first invariant failure observed, or nil.
func (t *AtomicTracker) Violation() *Violation { return t.v }

// Fingerprint folds every latched (tx, shard, outcome) triple into a
// 64-bit FNV digest in sorted order.
func (t *AtomicTracker) Fingerprint() string {
	fp := uint64(fnvOffset)
	for _, tx := range det.SortedKeys(t.outcomes) {
		m := t.outcomes[tx]
		for _, sh := range det.SortedKeys(m) {
			fp = fnvMixUint(fp, uint64(tx)<<16|uint64(sh)<<8|uint64(m[sh]))
		}
	}
	return fmt.Sprintf("%016x", fp)
}
