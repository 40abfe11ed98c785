// Package snapshot defines the canonical snapshot/v1 wire format shared
// by every log-compaction and state-transfer path in this repository:
// raft InstallSnapshot, multipaxos state-transfer catch-up, WAL
// snapshot-then-suffix recovery, and the live runtime's snapshot
// streaming all carry the same encoded blob.
//
// A snapshot captures everything a fresh replica needs to join at a log
// position without replaying the compacted prefix: the last covered
// index, the term (or ballot number) under which that index was
// written, the cluster membership in effect at that index, and an
// opaque application payload (typically an smr.Executor session table
// plus state-machine bytes).
//
// The package also defines config-change values — membership changes
// ride the replicated log as ordinary commands with a reserved magic
// prefix, exactly as Gray & Lamport's "Consensus on Transaction Commit"
// suggests treating reconfiguration: just another agreed log entry.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// Snapshot is one encoded state-transfer unit.
type Snapshot struct {
	// LastIndex is the highest log index the snapshot covers; the log
	// below and including it may be discarded.
	LastIndex types.Seq
	// LastTerm is the raft term (or paxos ballot number) of the entry at
	// LastIndex, needed for the AppendEntries consistency check at the
	// snapshot boundary.
	LastTerm uint64
	// Members is the cluster configuration in effect at LastIndex.
	Members []types.NodeID
	// State is the opaque application payload (executor sessions + state
	// machine bytes); nil for protocol-only snapshots.
	State []byte
}

// Wire format (snapshot/v1):
//
//	"SNP" ver(u8='1') | u64 lastIndex | u64 lastTerm |
//	u32 nMembers | nMembers × u64 member |
//	u32 stateLen | state | u32 crc32c(everything before)
var magic = [3]byte{'S', 'N', 'P'}

const version = '1'

var (
	// ErrTruncated reports an encoding shorter than its headers claim.
	ErrTruncated = errors.New("snapshot: truncated encoding")
	// ErrVersion reports a blob whose magic or version byte is unknown.
	ErrVersion = errors.New("snapshot: unknown format version")
	// ErrChecksum reports a blob whose CRC trailer does not match.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes s into the snapshot/v1 format.
func Encode(s Snapshot) []byte {
	buf := make([]byte, 0, 4+8+8+4+8*len(s.Members)+4+len(s.State)+4)
	buf = append(buf, magic[:]...)
	buf = append(buf, version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.LastIndex))
	buf = binary.BigEndian.AppendUint64(buf, s.LastTerm)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Members)))
	for _, m := range s.Members {
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(m)))
	}
	buf = wire.AppendBytes32(buf, s.State)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// Decode parses a snapshot/v1 blob. Every malformed input — wrong
// magic, unknown version, short headers, short body, bad checksum,
// trailing garbage — yields an explicit error, never a partial value.
func Decode(b []byte) (Snapshot, error) {
	r := wire.NewReader(b)
	mg, ver := r.View(len(magic)), r.U8()
	if r.Err() != nil {
		return Snapshot{}, ErrTruncated
	}
	if !bytes.Equal(mg, magic[:]) {
		return Snapshot{}, ErrVersion
	}
	if ver != version {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrVersion, ver)
	}
	s := Snapshot{LastIndex: types.Seq(r.U64()), LastTerm: r.U64()}
	if n := r.Count(8); n > 0 {
		s.Members = make([]types.NodeID, n)
		for i := range s.Members {
			s.Members[i] = types.NodeID(r.I64())
		}
	}
	s.State = r.Copy32()
	body := len(b) - r.Len()
	sum := r.U32()
	if !r.Done() {
		return Snapshot{}, ErrTruncated // short, or trailing bytes
	}
	if crc32.Checksum(b[:body], crcTable) != sum {
		return Snapshot{}, ErrChecksum
	}
	return s, nil
}
