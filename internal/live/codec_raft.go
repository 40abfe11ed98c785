package live

import (
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// RaftCodec serializes raft.Message. Field order is fixed; every field
// is written unconditionally (raft messages are small and the framing
// already batches), so the layout is trivially versionable by length.
type RaftCodec struct{}

// Append implements Codec[raft.Message].
func (RaftCodec) Append(dst []byte, m raft.Message) []byte {
	dst = appendU8(dst, uint8(m.Kind))
	dst = appendI64(dst, int64(m.From))
	dst = appendI64(dst, int64(m.To))
	dst = appendU64(dst, uint64(m.Term))
	dst = appendU64(dst, uint64(m.LastLogIndex))
	dst = appendU64(dst, uint64(m.LastLogTerm))
	dst = appendU8(dst, b2u(m.Granted))
	dst = appendU64(dst, uint64(m.PrevIndex))
	dst = appendU64(dst, uint64(m.PrevTerm))
	dst = appendU64(dst, uint64(m.LeaderCommit))
	dst = appendU8(dst, b2u(m.Success))
	dst = appendU64(dst, uint64(m.MatchIndex))
	dst = wire.AppendBytes32(dst, m.Val)
	dst = appendU32(dst, m.Offset)
	dst = appendU8(dst, b2u(m.Done))
	dst = appendU64(dst, m.Read)
	dst = appendU32(dst, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		dst = appendU64(dst, uint64(e.Term))
		dst = wire.AppendBytes32(dst, e.Val)
	}
	return dst
}

// Decode implements Codec[raft.Message].
func (RaftCodec) Decode(b []byte) (raft.Message, error) {
	r := wire.NewReader(b)
	var m raft.Message
	m.Kind = raft.MsgKind(r.U8())
	m.From = types.NodeID(r.I64())
	m.To = types.NodeID(r.I64())
	m.Term = raft.Term(r.U64())
	m.LastLogIndex = types.Seq(r.U64())
	m.LastLogTerm = raft.Term(r.U64())
	m.Granted = r.Bool()
	m.PrevIndex = types.Seq(r.U64())
	m.PrevTerm = raft.Term(r.U64())
	m.LeaderCommit = types.Seq(r.U64())
	m.Success = r.Bool()
	m.MatchIndex = types.Seq(r.U64())
	m.Val = r.Copy32()
	m.Offset = r.U32()
	m.Done = r.Bool()
	m.Read = r.U64()
	n := r.Count(12) // 8-byte term + 4-byte value length minimum
	if n > 0 {
		m.Entries = make([]raft.LogEntry, n)
		for i := range m.Entries {
			m.Entries[i].Term = raft.Term(r.U64())
			m.Entries[i].Val = r.Copy32()
		}
	}
	if !r.Done() || m.Kind < raft.MsgRequestVote || m.Kind > raft.MsgReadResp {
		return raft.Message{}, ErrCodec
	}
	return m, nil
}

func b2u(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}
