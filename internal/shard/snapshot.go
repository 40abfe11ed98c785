package shard

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/wire"
)

// Store snapshot codec. A shard replica's transaction correctness
// depends on more than the committed KV: a restored node must also hold
// the prepare-lock table, the staged (prepared, undecided) write sets,
// the latched per-transaction outcomes, and the home-shard decision
// records — otherwise a node joining from a snapshot could grant a
// conflicting prepare or forget a vote it already cast. All five
// components serialize in sorted order so replicas at the same log
// frontier produce identical bytes. Drained events are transient and
// excluded.
//
// Format: u8 ver=1 | u32 kvLen | kv | u32 nLocks | nLocks × (u16 keyLen
// | key | u64 tx) | u32 nStaged | nStaged × (u64 tx | u32 nCmds |
// nCmds × (u32 len | cmd) | u32 nKeys | nKeys × (u16 len | key)) |
// u32 nOutcomes | nOutcomes × (u64 tx | u8 o) | u32 nDecided |
// nDecided × (u64 tx | u8 o)

const storeSnapVersion = 1

// ErrSnapshot reports a malformed shard store snapshot.
var ErrSnapshot = errors.New("shard: malformed store snapshot")

var errSnapOrder = fmt.Errorf("%w: truncated, or a table's keys do not ascend", ErrSnapshot)

// Snapshot serializes the full shard state machine deterministically.
func (s *Store) Snapshot() []byte {
	kv := s.kv.Snapshot()
	buf := make([]byte, 0, 1+4+len(kv)+64)
	buf = append(buf, storeSnapVersion)
	buf = wire.AppendBytes32(buf, kv)

	lockKeys := det.SortedKeys(s.locks)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(lockKeys)))
	for _, k := range lockKeys {
		buf = wire.AppendBytes16(buf, k)
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.locks[k]))
	}

	stagedTxs := det.SortedKeys(s.staged)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(stagedTxs)))
	for _, tx := range stagedTxs {
		st := s.staged[tx]
		buf = binary.BigEndian.AppendUint64(buf, uint64(tx))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.cmds)))
		for _, c := range st.cmds {
			buf = wire.AppendBytes32(buf, c.Encode())
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.keys)))
		for _, k := range st.keys {
			buf = wire.AppendBytes16(buf, k)
		}
	}

	buf = appendOutcomeMap(buf, s.outcomes)
	return appendOutcomeMap(buf, s.decided)
}

func appendOutcomeMap(buf []byte, m map[commit.TxID]commit.Outcome) []byte {
	txs := det.SortedKeys(m)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(txs)))
	for _, tx := range txs {
		buf = binary.BigEndian.AppendUint64(buf, uint64(tx))
		buf = append(buf, byte(m[tx]))
	}
	return buf
}

// Restore replaces the store's contents from a Snapshot blob. Every
// table's keys must ascend strictly, as Snapshot writes them, so one
// state has one encoding. Malformed input is an explicit error and
// leaves the store untouched.
func (s *Store) Restore(snap []byte) error {
	r := wire.NewReader(snap)
	if v := r.U8(); r.Err() == nil && v != storeSnapVersion {
		return fmt.Errorf("%w: version %d", ErrSnapshot, v)
	}
	kvBytes := r.View32() // kvstore.Restore copies what it keeps

	nl := r.Count(2 + 8)
	locks := make(map[string]commit.TxID, nl)
	prevKey := ""
	for i := 0; i < nl; i++ {
		k := string(r.View16())
		if i > 0 && k <= prevKey {
			return errSnapOrder
		}
		locks[k], prevKey = commit.TxID(r.U64()), k
	}

	ns := r.Count(8 + 4 + 4)
	staged := make(map[commit.TxID]*stagedTxn, ns)
	var prevTx commit.TxID
	for i := 0; i < ns; i++ {
		tx := commit.TxID(r.U64())
		if i > 0 && tx <= prevTx {
			return errSnapOrder
		}
		st := &stagedTxn{}
		for j, nc := 0, r.Count(4); j < nc; j++ {
			c, err := kvstore.Decode(r.View32())
			if err != nil {
				return fmt.Errorf("%w: staged command: %v", ErrSnapshot, err)
			}
			st.cmds = append(st.cmds, c)
		}
		for j, nk := 0, r.Count(2); j < nk; j++ {
			st.keys = append(st.keys, string(r.View16()))
		}
		staged[tx], prevTx = st, tx
	}

	outcomes, decided := readOutcomeMap(&r), readOutcomeMap(&r)
	if outcomes == nil || decided == nil {
		return errSnapOrder
	}
	if !r.Done() {
		return fmt.Errorf("%w: truncated or trailing bytes", ErrSnapshot)
	}
	kv := kvstore.New()
	if err := kv.Restore(kvBytes); err != nil {
		return err
	}
	s.kv = kv
	s.locks, s.staged = locks, staged
	s.outcomes, s.decided = outcomes, decided
	s.events = nil
	return nil
}

// readOutcomeMap returns nil if the transactions do not ascend strictly.
func readOutcomeMap(r *wire.Reader) map[commit.TxID]commit.Outcome {
	n := r.Count(8 + 1)
	m := make(map[commit.TxID]commit.Outcome, n)
	var prev commit.TxID
	for i := 0; i < n; i++ {
		tx := commit.TxID(r.U64())
		if i > 0 && tx <= prev {
			return nil
		}
		m[tx], prev = commit.Outcome(r.U8()), tx
	}
	return m
}
