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
	dst = appendU64(dst, m.Prev)
	dst = appendU64(dst, uint64(m.Commit))
	dst = appendU64(dst, uint64(m.Match))
	dst = appendU8(dst, b2u(m.OK))
	dst = appendU64(dst, m.Read)
	if carriesChunk(m.Kind) {
		dst = appendU32(dst, m.Offset)
		dst = appendU8(dst, b2u(m.Done))
	}
	dst = wire.AppendBytes32(dst, m.Val)
	dst = appendU32(dst, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		dst = appendU64(dst, e.Term)
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
	m.Prev = r.U64()
	m.Commit = types.Seq(r.U64())
	m.Match = types.Seq(r.U64())
	m.OK = r.Bool()
	m.Read = r.U64()
	if carriesChunk(m.Kind) {
		m.Offset = r.U32()
		m.Done = r.Bool()
	}
	m.Val = r.Copy32()
	n := r.Count(12) // 8-byte ballot tag + 4-byte value length minimum
	if n > 0 {
		m.Entries = make([]multipaxos.Entry, n)
		for i := range m.Entries {
			m.Entries[i].Term = r.U64()
			m.Entries[i].Val = r.Copy32()
		}
	}
	if !r.Done() || m.Kind < multipaxos.MsgPrepare || m.Kind > multipaxos.MsgReadResp {
		return multipaxos.Message{}, ErrCodec
	}
	return m, nil
}

// carriesChunk reports whether messages of kind k carry a snapshot
// chunk's offset and last flag; no other kind spends the bytes.
func carriesChunk(k multipaxos.MsgKind) bool {
	return k == multipaxos.MsgState || k == multipaxos.MsgStateResp
}
