package shard

import (
	"encoding/binary"
	"errors"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// Transaction command kinds, layered above the kvstore op codes in the
// shard log. The 0xE0 range cannot collide with kvstore's 1..6, so
// Store.Apply can dispatch on the first byte.
const (
	TxApply   uint8 = 0xE1 + iota // atomic multi-op batch, single log entry (single-shard fast path)
	TxPrepare                     // stage writes + take locks, reply with the vote
	TxCommit                      // apply staged writes, release locks
	TxAbort                       // discard staged writes, release locks
	TxDecide                      // latch the transaction outcome (home shard only)
)

// MaxTxnOps bounds the command count inside one TxApply/TxPrepare so a
// corrupt length prefix cannot force a huge allocation.
const MaxTxnOps = 64

// Cmd is one decoded shard-log transaction command.
type Cmd struct {
	Kind    uint8
	Tx      commit.TxID
	Cmds    []kvstore.Command // TxApply, TxPrepare
	Outcome commit.Outcome    // TxDecide
}

// ErrDecode reports a malformed encoded transaction command.
var ErrDecode = errors.New("shard: malformed txn command")

// IsTxnCmd reports whether v starts a shard transaction command rather
// than a plain kvstore command.
func IsTxnCmd(v types.Value) bool {
	return len(v) > 0 && v[0] >= TxApply && v[0] <= TxDecide
}

// Encode serializes the command:
//
//	u8 kind | u64 tx | payload
//
// where payload is, per kind:
//
//	TxApply/TxPrepare  u16 count | count × (u32 len | kvstore command)
//	TxCommit/TxAbort   empty
//	TxDecide           u8 outcome
func (c Cmd) Encode() types.Value {
	buf := make([]byte, 0, 9+16*len(c.Cmds))
	buf = append(buf, c.Kind)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.Tx))
	switch c.Kind {
	case TxApply, TxPrepare:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Cmds)))
		for _, kc := range c.Cmds {
			buf = wire.AppendBytes32(buf, kc.Encode())
		}
	case TxDecide:
		buf = append(buf, uint8(c.Outcome))
	}
	return types.Value(buf)
}

// DecodeCmd parses a serialized transaction command, validating every
// length prefix so truncated, oversized, or trailing-garbage inputs
// return ErrDecode rather than panicking.
func DecodeCmd(v types.Value) (Cmd, error) {
	r := wire.NewReader(v)
	c := Cmd{Kind: r.U8(), Tx: commit.TxID(r.U64())}
	switch c.Kind {
	case TxApply, TxPrepare:
		n := r.Count16(4)
		if n > MaxTxnOps {
			return Cmd{}, ErrDecode
		}
		c.Cmds = make([]kvstore.Command, 0, n)
		for i := 0; i < n; i++ {
			kc, err := kvstore.Decode(r.View32())
			if err != nil {
				return Cmd{}, ErrDecode
			}
			c.Cmds = append(c.Cmds, kc)
		}
	case TxCommit, TxAbort:
	case TxDecide:
		c.Outcome = commit.Outcome(r.U8())
		if c.Outcome != commit.Committed && c.Outcome != commit.Aborted {
			return Cmd{}, ErrDecode
		}
	default:
		return Cmd{}, ErrDecode
	}
	if !r.Done() {
		return Cmd{}, ErrDecode
	}
	return c, nil
}

// Convenience constructors.

// Apply builds the single-shard fast-path command: every op lands in
// one log entry, so SMR total order makes the batch atomic without 2PC.
func Apply(tx commit.TxID, cmds []kvstore.Command) Cmd {
	return Cmd{Kind: TxApply, Tx: tx, Cmds: cmds}
}

// Prepare builds a participant's prepare command.
func Prepare(tx commit.TxID, cmds []kvstore.Command) Cmd {
	return Cmd{Kind: TxPrepare, Tx: tx, Cmds: cmds}
}

// Commit builds a participant's commit command.
func Commit(tx commit.TxID) Cmd { return Cmd{Kind: TxCommit, Tx: tx} }

// Abort builds a participant's abort command.
func Abort(tx commit.TxID) Cmd { return Cmd{Kind: TxAbort, Tx: tx} }

// Decide builds the home-shard decision record.
func Decide(tx commit.TxID, o commit.Outcome) Cmd {
	return Cmd{Kind: TxDecide, Tx: tx, Outcome: o}
}
