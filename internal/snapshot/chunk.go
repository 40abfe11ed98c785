package snapshot

import "fortyconsensus/internal/types"

// Chunked, offset-resumable transfer, replog's, which raft and
// Multi-Paxos share. The sender slices one immutable encoded snapshot
// into fixed-size chunks addressed by byte offset; the receiver assembles
// them in offset order and asks for the next offset it needs after every
// chunk. Because every chunk names its offset,
// a transfer survives loss and retransmission from any position: the
// receiver re-states the offset it wants and the sender resumes there.
// A chunk the receiver already holds draws no answer, so a duplicated
// chunk never starts a second chain of requests.

// ChunkAt returns the chunk of data starting at off, at most ChunkSize
// bytes, and whether it is the final chunk. It returns nil, true for an
// offset at or beyond the end (an empty snapshot transfers as one empty
// final chunk at offset 0).
func ChunkAt(data []byte, off int) ([]byte, bool) {
	if off < 0 || off >= len(data) {
		return nil, true
	}
	end := off + ChunkSize
	if end >= len(data) {
		return data[off:], true
	}
	return data[off:end], false
}

// ChunkSize is the snapshot transfer chunk size.
const ChunkSize = 4096

// Window is how far past Offset a Receiver holds a chunk that overtook
// the ones before it.
const Window = 16 * ChunkSize

// BatchBytes bounds the values one catch-up batch carries (an append,
// or the decided slots of a Multi-Paxos Ack): a batch stops at the entry
// that reaches it, so it always carries one and stays far below a
// transport's frame limit however large the entries are.
const BatchBytes = 1 << 20

// Receiver assembles the transfer of one snapshot, named by its
// LastIndex. A chunk of another index starts the transfer over. The
// blob grows in offset order; a chunk less than a Window past Offset
// waits until the chunks before it arrive, as a resend and the chunk
// after it may overtake each other.
type Receiver struct {
	index types.Seq
	buf   []byte
	ahead map[int]pending // chunks past Offset, by offset
}

type pending struct {
	chunk []byte
	last  bool
}

// Offset returns the next byte offset the receiver needs.
func (r *Receiver) Offset() int { return len(r.buf) }

// Take steps one chunk at off of the snapshot whose LastIndex is index;
// last marks the final chunk. Once the final chunk completes a blob that
// decodes and covers index, Take returns it (raw, which the caller owns,
// and decoded) and the receiver is empty again. Otherwise ask reports
// whether the sender should be told Offset: yes after a new chunk or a
// gap, and after a blob that failed to decode (the transfer restarts at
// 0); no for a chunk the receiver already holds.
func (r *Receiver) Take(index types.Seq, off int, chunk []byte, last bool) (raw []byte, snap *Snapshot, ask bool) {
	if index != r.index {
		r.reset(index)
	}
	if off > len(r.buf) && off < len(r.buf)+Window {
		if r.ahead == nil {
			r.ahead = make(map[int]pending)
		}
		r.ahead[off] = pending{chunk, last}
	}
	if off != len(r.buf) {
		return nil, nil, off > len(r.buf)
	}
	for !last {
		r.buf = append(r.buf, chunk...)
		next, ok := r.ahead[len(r.buf)]
		if !ok {
			return nil, nil, true
		}
		delete(r.ahead, len(r.buf))
		chunk, last = next.chunk, next.last
	}
	raw = append(r.buf, chunk...)
	r.reset(index)
	s, err := Decode(raw)
	if err != nil || s.LastIndex != index {
		return nil, nil, true
	}
	return raw, &s, false
}

// reset empties the receiver for a transfer of index.
func (r *Receiver) reset(index types.Seq) {
	r.index, r.buf = index, nil
	clear(r.ahead)
}
