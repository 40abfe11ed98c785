package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"fortyconsensus/internal/wire"
)

// DefaultMaxFrame bounds a single frame's payload. Large enough for a
// full raft append batch of sizeable values, small enough that a
// corrupt length prefix cannot trigger a gigabyte allocation.
const DefaultMaxFrame = 16 << 20

// ErrFrameTooLarge reports a length prefix above the configured cap.
var ErrFrameTooLarge = errors.New("live: frame exceeds size limit")

// WriteFrame writes one length-prefixed frame: u32 big-endian payload
// length, then the payload. The caller flushes any buffering. A writer
// that lends out its free buffer (bufio.Writer, bytes.Buffer) takes the
// prefix there, so a frame into it allocates nothing; any other writer
// gets the prefix in a slice of its own.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		hdr = ab.AvailableBuffer()
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, tolerating arbitrarily
// fragmented reads (io.ReadFull loops until the frame is complete).
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		// A frame that starts but never finishes is a torn connection.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// readFrameInPlace is ReadFrame over a connection's reader without the
// copy: a frame that fits br's buffer is returned as a view of it, valid
// only until the next read from br; a larger one, or a failed stream, is
// ReadFrame's. The three socket readers use it, and the decoders behind
// them copy whatever they keep (wire.Reader.Copy*).
func readFrameInPlace(br *bufio.Reader) ([]byte, error) {
	if hdr, err := br.Peek(4); err == nil {
		if n := 4 + int(binary.BigEndian.Uint32(hdr)); n <= br.Size() {
			if b, err := br.Peek(n); err == nil {
				br.Discard(n)
				return b[4:], nil
			}
		}
	}
	return ReadFrame(br, DefaultMaxFrame)
}

// frameBuffered reports whether br's buffer already holds a whole frame,
// so that reading it makes no syscall.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4) // buffered: cannot fail
	return br.Buffered() >= 4+int(binary.BigEndian.Uint32(hdr))
}

// Connection roles, declared by the first frame on every connection.
const (
	helloPeer   = 0x50 // 'P': inter-node protocol traffic follows
	helloClient = 0x43 // 'C': client request/response traffic follows
)

// helloLen is a hello payload's size: the role byte and a u64 ID.
const helloLen = 9

// encodeHello builds the role-declaration frame payload.
func encodeHello(role byte, id int64) []byte {
	b := make([]byte, 0, helloLen)
	b = append(b, role)
	b = binary.BigEndian.AppendUint64(b, uint64(id))
	return b
}

// decodeHello parses a hello payload into (role, id).
func decodeHello(b []byte) (byte, int64, error) {
	r := wire.NewReader(b)
	role, id := r.U8(), r.I64()
	if !r.Done() || (role != helloPeer && role != helloClient) {
		return 0, 0, errors.New("live: malformed hello frame")
	}
	return role, id, nil
}

// Listen opens a listener on an ephemeral localhost port and returns
// it with its address — for assembling clusters (and tests) before the
// full address map is known.
func Listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, ln.Addr().String(), nil
}
