package snapshot

// Chunked, offset-resumable transfer. The sender slices one immutable
// encoded snapshot into fixed-size chunks addressed by byte offset; the
// receiver assembles them strictly in order, acknowledging the next
// offset it needs. Because every chunk names its offset, a transfer
// survives message loss, duplication, and leader retransmission from an
// arbitrary position: the receiver simply re-states the offset it wants
// and the sender resumes there. A new snapshot (different LastIndex)
// resets the assembler.

// ChunkAt returns the chunk of data starting at off, at most size bytes,
// and whether it is the final chunk. It returns nil, true for an offset
// at or beyond the end (an empty snapshot transfers as one empty final
// chunk at offset 0).
func ChunkAt(data []byte, off, size int) ([]byte, bool) {
	if size <= 0 {
		size = DefaultChunkSize
	}
	if off < 0 || off >= len(data) {
		return nil, true
	}
	end := off + size
	if end >= len(data) {
		return data[off:], true
	}
	return data[off:end], false
}

// DefaultChunkSize is the transfer chunk size when a config leaves it 0.
const DefaultChunkSize = 4096

// Assembler accumulates in-order chunks of one snapshot transfer.
type Assembler struct {
	buf []byte
}

// Offset returns the next byte offset the assembler needs.
func (a *Assembler) Offset() int { return len(a.buf) }

// Add appends a chunk that must start exactly at Offset(); it reports
// whether the chunk was accepted. Out-of-order chunks are rejected
// (the caller answers with the wanted Offset so the sender can resume).
func (a *Assembler) Add(off int, chunk []byte) bool {
	if off != len(a.buf) {
		return false
	}
	a.buf = append(a.buf, chunk...)
	return true
}

// Take returns the assembled bytes and resets the assembler.
func (a *Assembler) Take() []byte {
	b := a.buf
	a.buf = nil
	return b
}

// Reset discards any partial transfer.
func (a *Assembler) Reset() { a.buf = nil }
