package live

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		{0x42},
		bytes.Repeat([]byte("abc"), 1000),
		make([]byte, DefaultMaxFrame/1024),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: ReadFrame: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("clean end of stream: got %v, want io.EOF", err)
	}
}

// oneByteReader fragments every read to a single byte, simulating the
// worst-case TCP segmentation ReadFrame must tolerate.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// A frame into a bufio.Writer takes its length prefix in the writer's
// own buffer: no header escapes to the heap.
func TestWriteFrameIntoBufioAllocatesNothing(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	payload := make([]byte, 100)
	if n := testing.AllocsPerRun(1000, func() { WriteFrame(bw, payload) }); n != 0 {
		t.Fatalf("a frame into a bufio.Writer costs %v allocations, want 0", n)
	}
}

func TestFramePartialReads(t *testing.T) {
	var buf bytes.Buffer
	want := []byte("partial reads must reassemble")
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(oneByteReader{&buf}, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("ReadFrame over 1-byte reads: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 99); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	// Drop the tail: the header promises 10 bytes but the stream ends.
	whole := buf.Bytes()
	for _, cut := range []int{1, 3, 4, 9, len(whole) - 1} {
		_, err := ReadFrame(bytes.NewReader(whole[:cut]), DefaultMaxFrame)
		if err == nil {
			t.Fatalf("cut at %d: expected error", cut)
		}
		if cut >= 4 && err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		role byte
		id   int64
	}{
		{helloPeer, 0},
		{helloPeer, 7},
		{helloClient, -1},
		{helloClient, 1 << 40},
	} {
		role, id, err := decodeHello(encodeHello(tc.role, tc.id))
		if err != nil {
			t.Fatalf("decodeHello(%x, %d): %v", tc.role, tc.id, err)
		}
		if role != tc.role || id != tc.id {
			t.Fatalf("got (%x, %d), want (%x, %d)", role, id, tc.role, tc.id)
		}
	}
	for _, bad := range [][]byte{nil, {helloPeer}, encodeHello(0x7a, 1), append(encodeHello(helloPeer, 1), 0)} {
		if _, _, err := decodeHello(bad); err == nil {
			t.Fatalf("decodeHello(%x): expected error", bad)
		}
	}
}
