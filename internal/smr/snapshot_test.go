package smr

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

func commitReq(e *Executor, slot types.Seq, client types.ClientID, seq uint64, cmd kvstore.Command) []types.Reply {
	return e.Commit(types.Decision{Slot: slot, Val: EncodeRequest(types.Request{
		Client: client, SeqNo: seq, Op: cmd.Encode(),
	})})
}

func TestSnapshotStateRestoreRoundTrip(t *testing.T) {
	src := NewExecutor(0, kvstore.New())
	commitReq(src, 1, 7, 1, kvstore.Put("a", []byte("1")))
	commitReq(src, 2, 7, 2, kvstore.Incr("n", 5))
	commitReq(src, 3, 9, 1, kvstore.Put("b", []byte("2")))

	blob := src.SnapshotState()

	dst := NewExecutor(1, kvstore.New())
	if err := dst.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if dst.NextSlot() != src.NextSlot() {
		t.Fatalf("next %d want %d", dst.NextSlot(), src.NextSlot())
	}
	// Dedup state survived: a replay of client 7's last request returns
	// the cached reply without re-executing.
	replies := commitReq(dst, 4, 7, 2, kvstore.Incr("n", 5))
	if len(replies) != 1 || string(replies[0].Result) != "5" {
		t.Fatalf("dedup replay: %+v", replies)
	}
	// New commands apply on top of restored state.
	replies = commitReq(dst, 5, 7, 3, kvstore.Incr("n", 1))
	if len(replies) != 1 || string(replies[0].Result) != "6" {
		t.Fatalf("post-restore incr: %+v", replies)
	}
	// Two replicas at the same frontier produce identical snapshots.
	peer := NewExecutor(2, kvstore.New())
	commitReq(peer, 1, 7, 1, kvstore.Put("a", []byte("1")))
	commitReq(peer, 2, 7, 2, kvstore.Incr("n", 5))
	commitReq(peer, 3, 9, 1, kvstore.Put("b", []byte("2")))
	if !bytes.Equal(blob, peer.SnapshotState()) {
		t.Fatal("snapshot bytes differ across replicas at the same frontier")
	}
}

func TestRestoreStateDropsStalePending(t *testing.T) {
	e := NewExecutor(0, kvstore.New())
	// Out-of-order commits below and above the snapshot frontier.
	e.Commit(types.Decision{Slot: 3, Val: types.Value("stale")})
	e.Commit(types.Decision{Slot: 9, Val: EncodeRequest(types.Request{Client: 1, SeqNo: 1, Op: kvstore.Put("k", []byte("v")).Encode()})})

	src := NewExecutor(1, kvstore.New())
	for s := types.Seq(1); s <= 7; s++ {
		commitReq(src, s, 2, uint64(s), kvstore.Put("x", []byte{byte(s)}))
	}
	if err := e.RestoreState(src.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	if e.NextSlot() != 8 {
		t.Fatalf("next %d want 8", e.NextSlot())
	}
	// Slot 9 is still pending; committing 8 releases both.
	replies := commitReq(e, 8, 2, 8, kvstore.Put("x", []byte("z")))
	if len(replies) != 2 {
		t.Fatalf("expected slots 8 and 9 to apply, got %d replies", len(replies))
	}
}

func TestRestoreStateTruncationErrors(t *testing.T) {
	src := NewExecutor(0, kvstore.New())
	commitReq(src, 1, 3, 1, kvstore.Put("key", []byte("value")))
	blob := src.SnapshotState()
	for n := 0; n < len(blob); n++ {
		e := NewExecutor(1, kvstore.New())
		if err := e.RestoreState(blob[:n]); err == nil {
			t.Fatalf("truncation to %d/%d restored without error", n, len(blob))
		}
		if e.NextSlot() != 1 {
			t.Fatalf("failed restore mutated executor: next=%d", e.NextSlot())
		}
	}
	if err := NewExecutor(1, kvstore.New()).RestoreState(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte restored without error")
	}
	// A client count the bytes cannot hold must be refused before it
	// sizes the session maps: 0xFFFFFFFF, and one more than the bytes
	// after it could hold at 20 bytes a client.
	for _, count := range []uint32{0xFFFFFFFF, uint32(len(blob)-12)/20 + 1} {
		bomb := append([]byte(nil), blob...)
		binary.BigEndian.PutUint32(bomb[8:], count)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := NewExecutor(1, kvstore.New()).RestoreState(bomb)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 1<<20 {
			t.Fatalf("client count %#x: err=%v after allocating %d bytes", count, err, grew)
		}
	}
	// Two sessions out of SnapshotState's order are not a second
	// encoding of the same executor.
	commitReq(src, 2, 5, 1, kvstore.Put("key", []byte("v2")))
	two := src.SnapshotState()
	if err := NewExecutor(1, kvstore.New()).RestoreState(two); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(two[12:], 9) // client 3 → 9, now above client 5
	if err := NewExecutor(1, kvstore.New()).RestoreState(two); err == nil {
		t.Fatal("restored a snapshot whose clients descend")
	}
}

func TestExecutorSkipsConfChanges(t *testing.T) {
	sm := kvstore.New()
	e := NewExecutor(0, sm)
	e.KeepHistory()
	cc := snapshot.EncodeConfChange(snapshot.ConfChange{Op: snapshot.ConfAdd, Node: 3})
	replies := e.Commit(types.Decision{Slot: 1, Val: cc})
	if len(replies) != 0 {
		t.Fatalf("conf change produced replies: %+v", replies)
	}
	if binary.BigEndian.Uint64(sm.Snapshot()) != 0 {
		t.Fatal("conf change reached the state machine")
	}
	// It still occupies its slot in the applied history.
	if got := e.Applied(); len(got) != 1 || got[0].Slot != 1 {
		t.Fatalf("applied history: %+v", got)
	}
	if e.NextSlot() != 2 {
		t.Fatalf("next %d want 2", e.NextSlot())
	}
}

func TestPrefixConsistencySlotAligned(t *testing.T) {
	full := audited(0)
	for s := types.Seq(1); s <= 6; s++ {
		commitReq(full, s, 1, uint64(s), kvstore.Put("k", []byte{byte(s)}))
	}
	// A restored replica whose history starts at slot 5.
	joined := audited(1)
	src := NewExecutor(2, kvstore.New())
	for s := types.Seq(1); s <= 4; s++ {
		commitReq(src, s, 1, uint64(s), kvstore.Put("k", []byte{byte(s)}))
	}
	if err := joined.RestoreState(src.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	for s := types.Seq(5); s <= 6; s++ {
		commitReq(joined, s, 1, uint64(s), kvstore.Put("k", []byte{byte(s)}))
	}
	if err := CheckPrefixConsistency(full, joined); err != nil {
		t.Fatalf("aligned histories flagged: %v", err)
	}
	// A real divergence in the overlap is still caught.
	bad := audited(3)
	if err := bad.RestoreState(src.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	commitReq(bad, 5, 1, 99, kvstore.Put("k", []byte("DIVERGED")))
	if err := CheckPrefixConsistency(full, bad); err == nil {
		t.Fatal("divergence in overlap not caught")
	}
}
