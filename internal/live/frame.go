package live

import (
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
// length, then the payload. The caller flushes any buffering.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
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

// Connection roles, declared by the first frame on every connection.
const (
	helloPeer   = 0x50 // 'P': inter-node protocol traffic follows
	helloClient = 0x43 // 'C': client request/response traffic follows
)

// encodeHello builds the role-declaration frame payload.
func encodeHello(role byte, id int64) []byte {
	b := make([]byte, 0, 9)
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
