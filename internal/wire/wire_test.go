package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// sample is one value of every field kind the Reader reads, in the
// order encode writes them.
type sample struct {
	flag  bool
	a     uint8
	b     uint16
	c     uint32
	d     uint64
	e     int64
	key   string   // u16-prefixed
	val   []byte   // u32-prefixed, copied
	view  []byte   // u32-prefixed, aliased
	items []uint16 // u32 count
	few   []uint8  // u16 count
	tail  []byte   // the rest
}

func (s sample) encode() []byte {
	var b []byte
	if s.flag {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, s.a)
	b = binary.BigEndian.AppendUint16(b, s.b)
	b = binary.BigEndian.AppendUint32(b, s.c)
	b = binary.BigEndian.AppendUint64(b, s.d)
	b = binary.BigEndian.AppendUint64(b, uint64(s.e))
	b = AppendBytes16(b, s.key)
	b = AppendBytes32(b, s.val)
	b = AppendBytes32(b, s.view)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.items)))
	for _, it := range s.items {
		b = binary.BigEndian.AppendUint16(b, it)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s.few)))
	b = append(b, s.few...)
	return append(b, s.tail...)
}

// decode is the shape every decoder in the repository has: read every
// field unconditionally, size loops with Count, check once.
func decode(b []byte) (sample, error) {
	r := NewReader(b)
	s := sample{flag: r.Bool(), a: r.U8(), b: r.U16(), c: r.U32(), d: r.U64(), e: r.I64()}
	s.key = string(r.View16())
	s.val = r.Copy32()
	s.view = r.View32()
	if n := r.Count(2); n > 0 {
		s.items = make([]uint16, n)
		for i := range s.items {
			s.items[i] = r.U16()
		}
	}
	if n := r.Count16(1); n > 0 {
		s.few = make([]uint8, n)
		for i := range s.few {
			s.few[i] = r.U8()
		}
	}
	s.tail = r.Copy(r.Len())
	if !r.Done() {
		return sample{}, r.Err()
	}
	return s, nil
}

var samples = []sample{
	{},
	{flag: true, a: 0xAB, b: 0xBEEF, c: 0xDEADBEEF, d: 1 << 63, e: -2, key: "k", val: []byte("value"),
		view: []byte("seen"), items: []uint16{1, 2, 3}, few: []uint8{9}, tail: []byte("rest")},
	{key: string(make([]byte, 300)), val: make([]byte, 70000), items: make([]uint16, 1000)},
}

func TestReaderRoundTripAndTruncation(t *testing.T) {
	for i, s := range samples {
		enc := s.encode()
		got, err := decode(enc)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !bytes.Equal(got.encode(), enc) {
			t.Fatalf("sample %d: re-encoding differs", i)
		}
		// The tail swallows trailing bytes, so cut it off to test that
		// every strict prefix of the framed part is an error.
		framed := enc[:len(enc)-len(s.tail)]
		for cut := 0; cut < len(framed); cut++ {
			if _, err := decode(framed[:cut]); err != ErrShort {
				t.Fatalf("sample %d cut at %d/%d: err = %v, want ErrShort", i, cut, len(framed), err)
			}
		}
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 1, 2})
	if v := r.Copy32(); v != nil || r.Err() != ErrShort {
		t.Fatalf("oversized length prefix: %v, %v", v, r.Err())
	}
	// Bytes remain, but nothing reads after the first failure.
	if r.U8() != 0 || r.U16() != 0 || r.U32() != 0 || r.U64() != 0 || r.View(1) != nil || r.Count(1) != 0 || r.Done() {
		t.Fatal("a failed Reader kept reading")
	}
	r = NewReader([]byte{1, 2})
	if r.U8() != 1 || r.Done() || r.Err() != nil {
		t.Fatal("Done must be false and Err nil while bytes remain")
	}
	if r.View(-1) != nil || r.Err() != ErrShort {
		t.Fatal("negative length accepted")
	}
	r = NewReader([]byte{2})
	if r.Bool() || r.Err() != ErrShort {
		t.Fatal("Bool accepted a byte other than 0 or 1")
	}
}

func TestCopyOwnsViewAliases(t *testing.T) {
	in := []byte{0, 0, 0, 2, 'a', 'b', 0, 0, 0, 2, 'c', 'd', 0, 0, 0, 0}
	r := NewReader(in)
	owned, view, empty := r.Copy32(), r.View32(), r.Copy32()
	if !r.Done() || empty != nil {
		t.Fatalf("done=%v empty=%v", r.Done(), empty)
	}
	for i := range in {
		in[i] = 'x'
	}
	if string(owned) != "ab" {
		t.Fatalf("Copy32 result changed with the input: %q", owned)
	}
	if string(view) != "xx" || cap(view) != 2 {
		t.Fatalf("View32 = %q cap %d, want an alias of the input with capacity 2", view, cap(view))
	}
}

// A count the remaining bytes cannot hold is refused before anything is
// sized by it: the largest count that fits passes, one more does not.
func TestCountBoundsAllocation(t *testing.T) {
	body := make([]byte, 40)
	for _, tc := range []struct {
		n, minSize uint32
		ok         bool
	}{
		{10, 4, true}, {11, 4, false}, {40, 1, true}, {41, 1, false},
		{5, 7, true}, {6, 7, false}, {0xFFFFFFFF, 1, false}, {0, 9, true},
	} {
		r := NewReader(append(binary.BigEndian.AppendUint32(nil, tc.n), body...))
		got := r.Count(int(tc.minSize))
		if ok := r.Err() == nil; ok != tc.ok || (ok && got != int(tc.n)) || (!ok && got != 0) {
			t.Errorf("Count(%d) of %d in 40 bytes: got %d err %v, want ok=%v", tc.minSize, tc.n, got, r.Err(), tc.ok)
		}
	}
	r := NewReader(append([]byte{0xFF, 0xFF}, body...))
	if r.Count16(1) != 0 || r.Err() != ErrShort {
		t.Error("Count16 accepted 65535 elements in 40 bytes")
	}
}

func FuzzReader(f *testing.F) {
	for _, s := range samples {
		f.Add(s.encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decode(b)
		if err != nil {
			return
		}
		if re := s.encode(); !bytes.Equal(re, b) {
			t.Fatalf("decoded without error but re-encodes differently:\n in  %x\n out %x", b, re)
		}
	})
}
