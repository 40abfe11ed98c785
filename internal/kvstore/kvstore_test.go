package kvstore

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"fortyconsensus/internal/types"
)

func TestCommandCodecRoundTrip(t *testing.T) {
	cmds := []Command{
		Get("k"),
		Put("key", []byte("value")),
		Delete("gone"),
		CAS("k", []byte("old"), []byte("new")),
		Incr("counter", -42),
		Command{Op: OpNoop},
		Put("", nil),
		{Op: OpPut, Key: "k", Value: []byte{}, Expected: []byte{}},
	}
	for _, c := range cmds {
		got, err := Decode(c.Encode())
		if err != nil {
			t.Fatalf("decode %+v: %v", c, err)
		}
		if got.Op != c.Op || got.Key != c.Key ||
			!bytes.Equal(got.Value, c.Value) || !bytes.Equal(got.Expected, c.Expected) {
			t.Fatalf("round trip %+v -> %+v", c, got)
		}
	}
}

func TestCommandCodecProperty(t *testing.T) {
	f := func(op uint8, key string, val, exp []byte) bool {
		if len(key) > 60000 {
			key = key[:60000]
		}
		c := Command{Op: op, Key: key, Value: val, Expected: exp}
		got, err := Decode(c.Encode())
		return err == nil && got.Op == op && got.Key == key &&
			bytes.Equal(got.Value, val) && bytes.Equal(got.Expected, exp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {1, 0}, {1, 0, 9, 0}, bytes.Repeat([]byte{0xFF}, 6)} {
		if _, err := Decode(types.Value(b)); err == nil {
			t.Fatalf("decoded garbage %v", b)
		}
	}
}

func TestStoreBasicOps(t *testing.T) {
	s := New()
	if got := s.Apply(Get("missing").Encode()); !got.Equal(ReplyNotFound) {
		t.Fatalf("get missing = %q", got)
	}
	if got := s.Apply(Put("a", []byte("1")).Encode()); !got.Equal(ReplyOK) {
		t.Fatalf("put = %q", got)
	}
	if got := s.Apply(Get("a").Encode()); !got.Equal(types.Value("1")) {
		t.Fatalf("get = %q", got)
	}
	if got := s.Apply(Delete("a").Encode()); !got.Equal(ReplyOK) {
		t.Fatalf("delete = %q", got)
	}
	if got := s.Apply(Delete("a").Encode()); !got.Equal(ReplyNotFound) {
		t.Fatalf("re-delete = %q", got)
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStoreCAS(t *testing.T) {
	s := New()
	// CAS on a missing key with empty expectation creates it.
	if got := s.Apply(CAS("k", nil, []byte("v1")).Encode()); !got.Equal(ReplyOK) {
		t.Fatalf("create CAS = %q", got)
	}
	if got := s.Apply(CAS("k", []byte("wrong"), []byte("v2")).Encode()); !got.Equal(ReplyCASFail) {
		t.Fatalf("mismatched CAS = %q", got)
	}
	if got := s.Apply(CAS("k", []byte("v1"), []byte("v2")).Encode()); !got.Equal(ReplyOK) {
		t.Fatalf("matched CAS = %q", got)
	}
	if v, _ := s.Get("k"); string(v) != "v2" {
		t.Fatalf("value after CAS = %q", v)
	}
	// CAS on missing key with non-empty expectation fails.
	if got := s.Apply(CAS("absent", []byte("x"), []byte("y")).Encode()); !got.Equal(ReplyCASFail) {
		t.Fatalf("CAS absent = %q", got)
	}
}

func TestStoreIncr(t *testing.T) {
	s := New()
	if got := s.Apply(Incr("c", 5).Encode()); !got.Equal(types.Value("5")) {
		t.Fatalf("incr = %q", got)
	}
	if got := s.Apply(Incr("c", -2).Encode()); !got.Equal(types.Value("3")) {
		t.Fatalf("incr = %q", got)
	}
	s.Apply(Put("s", []byte("not-a-number")).Encode())
	if got := s.Apply(Incr("s", 1).Encode()); !got.Equal(ReplyBadCmd) {
		t.Fatalf("incr non-numeric = %q", got)
	}
}

// The apply path reads a command in place: a Get replies with the stored
// bytes and allocates nothing, and an Incr of a key already present
// allocates only the digits it both stores and replies.
func TestApplyAllocations(t *testing.T) {
	s := New()
	s.Apply(Put("key-000001", make([]byte, 64)).Encode())
	get, incr := Get("key-000001").Encode(), Incr("n", 1).Encode()
	s.Apply(incr)
	if n := testing.AllocsPerRun(1000, func() { s.Apply(get) }); n != 0 {
		t.Fatalf("Apply(Get) costs %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Query(get) }); n != 0 {
		t.Fatalf("Query(Get) costs %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Apply(incr) }); n > 1 {
		t.Fatalf("Apply(Incr) of a present key costs %v allocations, want at most 1", n)
	}
	got := s.Apply(incr)
	if v, _ := s.Get("n"); string(v) != "1003" || string(got) != "1003" {
		t.Fatalf("after 1003 Incrs the store holds %q and replied %q", v, got)
	}
}

func TestStoreBadCommandsDeterministic(t *testing.T) {
	s := New()
	if got := s.Apply(types.Value("junk")); !got.Equal(ReplyBadCmd) {
		t.Fatalf("junk = %q", got)
	}
	if got := s.Apply(Command{Op: 99, Key: "k"}.Encode()); !got.Equal(ReplyBadCmd) {
		t.Fatalf("unknown op = %q", got)
	}
}

func TestDeterminismAcrossReplicas(t *testing.T) {
	// The SMR property: identical command sequences produce identical
	// state and identical replies.
	script := []Command{
		Put("x", []byte("1")), Incr("n", 7), Get("x"), CAS("x", []byte("1"), []byte("2")),
		Delete("y"), Put("y", []byte("z")), Get("y"), Incr("n", -3), Command{Op: OpNoop},
	}
	a, b := New(), New()
	for _, c := range script {
		ra := a.Apply(c.Encode())
		rb := b.Apply(c.Encode())
		if !ra.Equal(rb) {
			t.Fatalf("replies diverge on %+v: %q vs %q", c, ra, rb)
		}
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("state digests diverge")
	}
	if a.applied != uint64(len(script)) {
		t.Fatalf("applied = %d", a.applied)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New()
	s.Apply(Put("a", []byte("1")).Encode())
	s.Apply(Put("b", []byte("two")).Encode())
	s.Apply(Incr("n", 9).Encode())
	snap := s.Snapshot()

	r := New()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Snapshot(), s.Snapshot()) {
		t.Fatal("restored digest differs")
	}
	if v, ok := r.Get("b"); !ok || string(v) != "two" {
		t.Fatalf("restored b = %q/%v", v, ok)
	}
	if r.applied != s.applied {
		t.Fatalf("applied counter not restored: %d vs %d", r.applied, s.applied)
	}
}

func TestSnapshotRestoreRejectsCorrupt(t *testing.T) {
	s := New()
	s.Apply(Put("a", []byte("1")).Encode())
	snap := s.Snapshot()
	for _, cut := range []int{1, 5, len(snap) - 1} {
		if err := New().Restore(snap[:cut]); err == nil {
			t.Fatalf("restored truncated snapshot (%d bytes)", cut)
		}
	}
	if err := New().Restore(append(snap, 0)); err == nil {
		t.Fatal("restored snapshot with trailing bytes")
	}
	// A key count the bytes cannot hold must be refused before it sizes
	// the map: 0xFFFFFFFF, and one more than the single key present.
	for _, count := range []uint32{0xFFFFFFFF, 2} {
		bomb := append([]byte(nil), snap...)
		binary.BigEndian.PutUint32(bomb[8:], count)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := New().Restore(bomb)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 1<<20 {
			t.Fatalf("key count %#x: err=%v after allocating %d bytes", count, err, grew)
		}
	}
	// Keys out of Snapshot's order, or repeated, are not a second
	// encoding of the same store.
	s.Apply(Put("b", []byte("2")).Encode())
	two := s.Snapshot()
	if err := New().Restore(two); err != nil {
		t.Fatal(err)
	}
	swapped := bytes.Replace(bytes.Replace(two, []byte("a"), []byte("c"), 1), []byte("b"), []byte("a"), 1)
	if err := New().Restore(swapped); err == nil {
		t.Fatal("restored a snapshot whose keys descend")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	a, b := New(), New()
	a.Apply(Put("x", []byte("1")).Encode())
	a.Apply(Put("y", []byte("2")).Encode())
	b.Apply(Put("y", []byte("2")).Encode())
	b.Apply(Put("x", []byte("1")).Encode())
	if !bytes.Equal(a.Snapshot()[8:], b.Snapshot()[8:]) { // skip applied counter
		t.Fatal("snapshot bytes depend on insertion order")
	}
}

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.data) }
