// Package wire is the one way bytes from a socket or a disk become
// values in this repository: a sticky-error Reader over a byte slice,
// and the append helpers for length-prefixed bytes that match it. Every
// format is big-endian and fixed-order; fixed-width fields are appended
// with encoding/binary directly.
//
// A decoder reads its fields unconditionally and checks Done (or Err)
// once at the end: the first read past the end latches the error and
// every later read returns zero. An element count is read with Count,
// which refuses a count the remaining bytes cannot hold — a corrupt or
// hostile prefix can therefore never size an allocation.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrShort is the Reader's error: a field, a length prefix or an
// element count claimed more bytes than the input holds.
var ErrShort = errors.New("wire: input shorter than its encoding claims")

// Reader decodes one encoded value front to back.
type Reader struct {
	b      []byte
	failed bool
}

// NewReader returns a Reader over b. The Reader never writes to b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns ErrShort once any read has failed, else nil.
func (r *Reader) Err() error {
	if r.failed {
		return ErrShort
	}
	return nil
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Done reports whether every read succeeded and consumed the input
// exactly; trailing bytes are as malformed as missing ones.
func (r *Reader) Done() bool { return !r.failed && len(r.b) == 0 }

// View returns the next n bytes as a slice of the input (capacity n):
// for bytes the caller decodes further or converts before the input
// buffer is reused. A negative or oversized n fails the Reader.
func (r *Reader) View(n int) []byte {
	if r.failed || n < 0 || n > len(r.b) {
		r.failed = true
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Copy returns the next n bytes as an independent slice the caller
// owns (a types.Value that outlives the input buffer); nil when n is 0.
func (r *Reader) Copy(n int) []byte {
	v := r.View(n)
	if len(v) == 0 {
		return nil
	}
	c := make([]byte, n)
	copy(c, v)
	return c
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.failed || len(r.b) < 1 {
		r.failed = true
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads one byte that must be 0 or 1, so a boolean has exactly
// one encoding.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.failed = true
	}
	return v == 1
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if r.failed || len(r.b) < 2 {
		r.failed = true
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.failed || len(r.b) < 4 {
		r.failed = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.failed || len(r.b) < 8 {
		r.failed = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// I64 reads a big-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// View16 reads a u16 length prefix and returns that many bytes as View.
func (r *Reader) View16() []byte { return r.View(int(r.U16())) }

// View32 reads a u32 length prefix and returns that many bytes as View.
func (r *Reader) View32() []byte { return r.View(int(r.U32())) }

// Copy32 reads a u32 length prefix and returns that many bytes as Copy.
func (r *Reader) Copy32() []byte { return r.Copy(int(r.U32())) }

// Count reads a u32 element count for a loop whose every element
// occupies at least minElemSize (≥ 1) encoded bytes, and fails the
// Reader — returning 0 — when the remaining input cannot hold that
// many. Size make() and bound the loop with its result only.
func (r *Reader) Count(minElemSize int) int { return r.count(int(r.U32()), minElemSize) }

// Count16 is Count for a u16 count prefix.
func (r *Reader) Count16(minElemSize int) int { return r.count(int(r.U16()), minElemSize) }

func (r *Reader) count(n, minElemSize int) int {
	if r.failed || n < 0 || n > len(r.b)/minElemSize {
		r.failed = true
		return 0
	}
	return n
}

// AppendBytes16 appends a u16 length prefix and then b — what View16
// reads. The caller keeps len(b) ≤ 65535.
func AppendBytes16[B ~[]byte | ~string](dst []byte, b B) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

// AppendBytes32 appends a u32 length prefix and then b — what View32
// and Copy32 read. nil and empty both encode as length 0.
func AppendBytes32[B ~[]byte | ~string](dst []byte, b B) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}
