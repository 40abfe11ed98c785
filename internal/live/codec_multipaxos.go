package live

import (
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// MultiPaxosCodec serializes multipaxos.Message with the same
// fixed-order layout discipline as RaftCodec.
type MultiPaxosCodec struct{}

// Append implements Codec[multipaxos.Message].
func (MultiPaxosCodec) Append(dst []byte, m multipaxos.Message) []byte {
	dst = appendU8(dst, uint8(m.Kind))
	dst = appendI64(dst, int64(m.From))
	dst = appendI64(dst, int64(m.To))
	dst = appendU64(dst, m.Ballot.Num)
	dst = appendI64(dst, int64(m.Ballot.Owner))
	dst = appendU64(dst, uint64(m.Slot))
	dst = appendU64(dst, uint64(m.Commit))
	dst = appendU64(dst, m.Read)
	dst = wire.AppendBytes32(dst, m.Val)
	dst = appendU32(dst, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		dst = appendU64(dst, uint64(e.Slot))
		dst = appendU64(dst, e.AcceptNum.Num)
		dst = appendI64(dst, int64(e.AcceptNum.Owner))
		dst = wire.AppendBytes32(dst, e.Val)
	}
	return dst
}

// Decode implements Codec[multipaxos.Message].
func (MultiPaxosCodec) Decode(b []byte) (multipaxos.Message, error) {
	r := wire.NewReader(b)
	var m multipaxos.Message
	m.Kind = multipaxos.MsgKind(r.U8())
	m.From = types.NodeID(r.I64())
	m.To = types.NodeID(r.I64())
	m.Ballot.Num = r.U64()
	m.Ballot.Owner = types.NodeID(r.I64())
	m.Slot = types.Seq(r.U64())
	m.Commit = types.Seq(r.U64())
	m.Read = r.U64()
	m.Val = r.Copy32()
	n := r.Count(28) // slot + ballot (16) + value length minimum
	if n > 0 {
		m.Entries = make([]multipaxos.Entry, n)
		for i := range m.Entries {
			m.Entries[i].Slot = types.Seq(r.U64())
			m.Entries[i].AcceptNum.Num = r.U64()
			m.Entries[i].AcceptNum.Owner = types.NodeID(r.I64())
			m.Entries[i].Val = r.Copy32()
		}
	}
	if !r.Done() || m.Kind < multipaxos.MsgPrepare || m.Kind > multipaxos.MsgReadResp {
		return multipaxos.Message{}, ErrCodec
	}
	return m, nil
}
