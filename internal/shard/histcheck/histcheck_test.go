package histcheck

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

func TestSequentialHistoryOK(t *testing.T) {
	var h History
	record := func(cmd kvstore.Command, res types.Value, at int) {
		id := h.Begin(cmd, at)
		h.End(id, res, at+1)
	}
	record(kvstore.Get("k"), kvstore.ReplyNotFound, 0)
	record(kvstore.Put("k", []byte("1")), kvstore.ReplyOK, 10)
	record(kvstore.Get("k"), types.Value("1"), 20)
	record(kvstore.Incr("k", 5), types.Value("6"), 30)
	record(kvstore.CAS("k", []byte("6"), []byte("7")), kvstore.ReplyOK, 40)
	record(kvstore.CAS("k", []byte("6"), []byte("8")), kvstore.ReplyCASFail, 50)
	record(kvstore.Delete("k"), kvstore.ReplyOK, 60)
	record(kvstore.Get("k"), kvstore.ReplyNotFound, 70)
	if err := h.Check(); err != nil {
		t.Fatalf("sequential history rejected: %v", err)
	}
}

func TestStaleReadCaught(t *testing.T) {
	var h History
	id := h.Begin(kvstore.Put("k", []byte("1")), 0)
	h.End(id, kvstore.ReplyOK, 10)
	id = h.Begin(kvstore.Get("k"), 20)
	h.End(id, kvstore.ReplyNotFound, 30)
	if err := h.Check(); err == nil {
		t.Fatal("stale read after a completed put must be rejected")
	}
}

func TestConcurrentPutsEitherOrder(t *testing.T) {
	var h History
	a := h.Begin(kvstore.Put("k", []byte("1")), 0)
	h.End(a, kvstore.ReplyOK, 10)
	b := h.Begin(kvstore.Put("k", []byte("2")), 5)
	h.End(b, kvstore.ReplyOK, 15)
	g := h.Begin(kvstore.Get("k"), 20)
	h.End(g, types.Value("1"), 30)
	if err := h.Check(); err != nil {
		t.Fatalf("overlapping puts may linearize in either order: %v", err)
	}
}

func TestPendingOpMayOrMayNotTakeEffect(t *testing.T) {
	for _, read := range []types.Value{types.Value("1"), kvstore.ReplyNotFound} {
		var h History
		h.Begin(kvstore.Put("k", []byte("1")), 0) // never completes
		g := h.Begin(kvstore.Get("k"), 10)
		h.End(g, read, 20)
		if err := h.Check(); err != nil {
			t.Fatalf("read %q with a pending put rejected: %v", read, err)
		}
	}
}

func TestRefusedOpHasNoEffect(t *testing.T) {
	var h History
	id := h.Begin(kvstore.Put("k", []byte("1")), 0)
	h.EndRefused(id, 10) // bounced off a prepare lock
	g := h.Begin(kvstore.Get("k"), 20)
	h.End(g, kvstore.ReplyNotFound, 30)
	if err := h.Check(); err != nil {
		t.Fatalf("refused put must not be required to take effect: %v", err)
	}

	var h2 History
	id = h2.Begin(kvstore.Put("k", []byte("1")), 0)
	h2.End(id, kvstore.ReplyOK, 10) // acknowledged, so it must be visible
	g = h2.Begin(kvstore.Get("k"), 20)
	h2.End(g, kvstore.ReplyNotFound, 30)
	if err := h2.Check(); err == nil {
		t.Fatal("acknowledged put that never became visible must be rejected")
	}
}

func TestKeysCheckedIndependently(t *testing.T) {
	var h History
	a := h.Begin(kvstore.Put("a", []byte("1")), 0)
	h.End(a, kvstore.ReplyOK, 10)
	b := h.Begin(kvstore.Get("b"), 20)
	h.End(b, kvstore.ReplyNotFound, 30)
	if err := h.Check(); err != nil {
		t.Fatalf("independent keys rejected: %v", err)
	}
}

func TestPerKeyOpCap(t *testing.T) {
	var h History
	for i := 0; i < 65; i++ {
		id := h.Begin(kvstore.Put("k", []byte("v")), i*2)
		h.End(id, kvstore.ReplyOK, i*2+1)
	}
	if err := h.Check(); err == nil {
		t.Fatal("65 ops on one key must report the DFS mask cap")
	}
}

// TestModelMatchesKVStore pins the checker's sequential model to the
// real kvstore: every command sequence must produce byte-identical
// replies from both.
func TestModelMatchesKVStore(t *testing.T) {
	seqs := [][]kvstore.Command{
		{kvstore.Get("k"), kvstore.Put("k", []byte("x")), kvstore.Get("k")},
		{kvstore.Delete("k"), kvstore.Put("k", nil), kvstore.Get("k"), kvstore.Delete("k"), kvstore.Delete("k")},
		{kvstore.CAS("k", nil, []byte("a")), kvstore.CAS("k", []byte("a"), []byte("b")), kvstore.CAS("k", []byte("a"), []byte("c")), kvstore.Get("k")},
		{kvstore.Incr("k", 3), kvstore.Incr("k", -4), kvstore.Get("k")},
		{kvstore.Put("k", []byte("notanum")), kvstore.Incr("k", 1)},
		{kvstore.Command{Op: kvstore.OpNoop}, kvstore.Get("k")},
	}
	for si, seq := range seqs {
		t.Run(fmt.Sprintf("seq%d", si), func(t *testing.T) {
			store := kvstore.New()
			var st keyState
			for oi, cmd := range seq {
				want := store.Apply(cmd.Encode())
				var got types.Value
				got, st = st.apply(cmd)
				if !got.Equal(want) {
					t.Fatalf("op %d (%v): model %q, kvstore %q", oi, cmd.Op, got, want)
				}
			}
		})
	}
}
