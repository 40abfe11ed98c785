package snapshot

import (
	"bytes"
	"errors"
	"testing"

	"fortyconsensus/internal/types"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Snapshot{
		{},
		{LastIndex: 1, LastTerm: 1},
		{LastIndex: 42, LastTerm: 7, Members: []types.NodeID{0, 1, 2}},
		{LastIndex: 1 << 40, LastTerm: 9, Members: []types.NodeID{3}, State: []byte("kv-state")},
		{LastIndex: 5, Members: []types.NodeID{0, 1, 2, 3, 4}, State: bytes.Repeat([]byte{0xAB}, 10_000)},
	}
	for i, want := range cases {
		b := Encode(want)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.LastIndex != want.LastIndex || got.LastTerm != want.LastTerm {
			t.Fatalf("case %d: got %+v want %+v", i, got, want)
		}
		if len(got.Members) != len(want.Members) {
			t.Fatalf("case %d: members %v want %v", i, got.Members, want.Members)
		}
		for j := range got.Members {
			if got.Members[j] != want.Members[j] {
				t.Fatalf("case %d: members %v want %v", i, got.Members, want.Members)
			}
		}
		if !bytes.Equal(got.State, want.State) {
			t.Fatalf("case %d: state mismatch", i)
		}
	}
}

// Every truncation of a valid encoding must decode to an explicit
// error — the repo-wide codec standard.
func TestDecodeTruncationFuzz(t *testing.T) {
	full := Encode(Snapshot{
		LastIndex: 99, LastTerm: 3,
		Members: []types.NodeID{0, 1, 2, 5},
		State:   []byte("the quick brown fox"),
	})
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
	// Trailing garbage is an error too.
	if _, err := Decode(append(append([]byte(nil), full...), 0x00)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	// Any single-bit corruption must fail the checksum (or framing).
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x80
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded without error", i)
		}
	}
}

func TestDecodeVersionErrors(t *testing.T) {
	if _, err := Decode([]byte("XXXX00000000")); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad magic: got %v", err)
	}
	b := Encode(Snapshot{LastIndex: 1})
	b[3] = '9'
	if _, err := Decode(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: got %v", err)
	}
}

func TestChunkTransferResume(t *testing.T) {
	data := Encode(Snapshot{LastIndex: 7, State: bytes.Repeat([]byte("0123456789"), 2000)}) // five chunks

	var r Receiver
	off := 0
	steps := 0
	for {
		steps++
		chunk, done := ChunkAt(data, off)
		// Lose every third chunk once: the sender retransmits from the
		// receiver's stated offset.
		if steps%3 == 0 && off == r.Offset() && steps < 40 {
			continue // dropped on the wire; receiver never saw it
		}
		raw, snap, ask := r.Take(7, off, chunk, done)
		if snap != nil {
			if !bytes.Equal(raw, data) || snap.LastIndex != 7 {
				t.Fatalf("assembled %d bytes through %d, want %d through 7", len(raw), snap.LastIndex, len(data))
			}
			return
		}
		if !ask {
			t.Fatalf("step %d: a new chunk at %d drew no answer", steps, off)
		}
		off = r.Offset() // the receiver answers with the offset it wants
	}
}

func TestChunkAtEdges(t *testing.T) {
	if c, done := ChunkAt(nil, 0); len(c) != 0 || !done {
		t.Fatalf("empty data: got %v,%v", c, done)
	}
	data := bytes.Repeat([]byte("abcdef"), ChunkSize/3) // two chunks
	if c, done := ChunkAt(data, 0); !bytes.Equal(c, data[:ChunkSize]) || done {
		t.Fatalf("first chunk: got %d bytes,%v", len(c), done)
	}
	if c, done := ChunkAt(data, ChunkSize); !bytes.Equal(c, data[ChunkSize:]) || !done {
		t.Fatalf("final chunk: got %d bytes,%v", len(c), done)
	}
	if c, done := ChunkAt(data, len(data)+99); c != nil || !done {
		t.Fatalf("past-end offset: got %q,%v", c, done)
	}
}

// A gap is answered with the offset the receiver wants; a chunk it
// already holds is not, so a duplicated chunk never starts a second
// chain of requests. A chunk of another index starts the transfer over,
// and a blob that does not decode to its index restarts it at 0.
func TestReceiverTakesChunksInOrder(t *testing.T) {
	data := Encode(Snapshot{LastIndex: 9, State: bytes.Repeat([]byte{7}, ChunkSize)}) // two chunks
	first, _ := ChunkAt(data, 0)
	var r Receiver
	if _, _, ask := r.Take(9, 0, first, false); !ask || r.Offset() != ChunkSize {
		t.Fatalf("in-order chunk: ask %v, offset %d", ask, r.Offset())
	}
	if _, _, ask := r.Take(9, 0, first, false); ask || r.Offset() != ChunkSize {
		t.Fatalf("duplicate chunk: ask %v, offset %d", ask, r.Offset())
	}
	if _, _, ask := r.Take(9, 2*ChunkSize, []byte("zz"), false); !ask || r.Offset() != ChunkSize {
		t.Fatalf("gap chunk: ask %v, offset %d", ask, r.Offset())
	}
	if _, _, ask := r.Take(10, ChunkSize, []byte("zz"), false); !ask || r.Offset() != 0 {
		t.Fatalf("chunk of a newer snapshot: ask %v, offset %d, want a restart at 0", ask, r.Offset())
	}
	r.Take(9, 0, first, false)
	if _, snap, ask := r.Take(9, ChunkSize, []byte("not the rest"), true); snap != nil || !ask || r.Offset() != 0 {
		t.Fatalf("corrupt blob: snap %v, ask %v, offset %d", snap != nil, ask, r.Offset())
	}
	whole := Encode(Snapshot{LastIndex: 8})
	if _, snap, _ := r.Take(9, 0, whole, true); snap != nil || r.Offset() != 0 {
		t.Fatal("a blob through 8 installed as the snapshot through 9")
	}
	raw, snap, ask := r.Take(8, 0, whole, true)
	if snap == nil || snap.LastIndex != 8 || !bytes.Equal(raw, whole) || ask {
		t.Fatalf("whole snapshot in one chunk: snap %+v, ask %v", snap, ask)
	}
}

// Chunks may overtake each other: a chunk less than a Window past
// Offset waits for the ones before it; one farther is let go.
func TestReceiverHoldsChunksThatOvertake(t *testing.T) {
	data := Encode(Snapshot{LastIndex: 5, State: bytes.Repeat([]byte{3}, Window)}) // one chunk past a window
	var r Receiver
	for _, off := range []int{Window, 2 * ChunkSize, ChunkSize} {
		chunk, last := ChunkAt(data, off)
		if _, snap, ask := r.Take(5, off, chunk, last); snap != nil || !ask || r.Offset() != 0 {
			t.Fatalf("chunk at %d before 0: ask %v, offset %d", off, ask, r.Offset())
		}
	}
	first, _ := ChunkAt(data, 0)
	if _, _, ask := r.Take(5, 0, first, false); !ask || r.Offset() != 3*ChunkSize {
		t.Fatalf("the overtaken first chunk: ask %v, offset %d, want the held two taken after it", ask, r.Offset())
	}
	var raw []byte
	var snap *Snapshot
	for off := r.Offset(); snap == nil && off < len(data); off += ChunkSize {
		chunk, last := ChunkAt(data, off)
		raw, snap, _ = r.Take(5, off, chunk, last)
	}
	if snap == nil || !bytes.Equal(raw, data) {
		t.Fatal("the snapshot did not install byte-identical")
	}
}

func TestConfChangeRoundTrip(t *testing.T) {
	for _, c := range []ConfChange{
		{Op: ConfAdd, Node: 3},
		{Op: ConfRemove, Node: 0},
		{Op: ConfAdd, Node: 1 << 20},
	} {
		v := EncodeConfChange(c)
		if !IsConfChange(v) {
			t.Fatalf("%v: IsConfChange false", c)
		}
		got, err := DecodeConfChange(v)
		if err != nil || got != c {
			t.Fatalf("%v: got %v err %v", c, got, err)
		}
	}
	// Client-request values must never look like config changes.
	if IsConfChange(types.Value("client request payload")) {
		t.Fatal("plain value detected as conf change")
	}
	if IsConfChange(nil) {
		t.Fatal("nil value detected as conf change")
	}
	// Prefixed but malformed bodies are explicit errors.
	v := EncodeConfChange(ConfChange{Op: ConfAdd, Node: 1})
	if _, err := DecodeConfChange(v[:12]); err == nil {
		t.Fatal("truncated conf change decoded")
	}
	bad := append(types.Value(nil), v...)
	bad[8] = 99
	if _, err := DecodeConfChange(bad); err == nil {
		t.Fatal("unknown op decoded")
	}
}

func TestConfChangeApply(t *testing.T) {
	ms := []types.NodeID{0, 1, 2}
	got := ConfChange{Op: ConfAdd, Node: 4}.Apply(ms)
	want := []types.NodeID{0, 1, 2, 4}
	eq := func(a, b []types.NodeID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !eq(got, want) {
		t.Fatalf("add: got %v want %v", got, want)
	}
	if !eq(ConfChange{Op: ConfAdd, Node: 1}.Apply(ms), ms) {
		t.Fatal("re-add changed members")
	}
	if !eq(ConfChange{Op: ConfRemove, Node: 1}.Apply(ms), []types.NodeID{0, 2}) {
		t.Fatal("remove failed")
	}
	if !eq(ConfChange{Op: ConfRemove, Node: 9}.Apply(ms), ms) {
		t.Fatal("remove-absent changed members")
	}
	// Out-of-order add lands sorted.
	if !eq(ConfChange{Op: ConfAdd, Node: 1}.Apply([]types.NodeID{0, 2, 3}), []types.NodeID{0, 1, 2, 3}) {
		t.Fatal("add not sorted")
	}
	if !eq(ms, []types.NodeID{0, 1, 2}) {
		t.Fatal("Apply mutated its input")
	}
}
