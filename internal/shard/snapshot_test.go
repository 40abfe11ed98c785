package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fortyconsensus/internal/det"
	"runtime"
	"testing"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/kvstore"
)

func TestStoreSnapshotRestoreMidTransaction(t *testing.T) {
	s := NewStore()
	s.Apply(kvstore.Put("base", []byte("v0")).Encode())
	s.Apply(kvstore.Put("acct", []byte("100")).Encode())
	// Tx 11 prepares: stages writes and takes locks.
	if got := s.Apply(Cmd{Kind: TxPrepare, Tx: 11, Cmds: []kvstore.Command{
		kvstore.Put("acct", []byte("50")),
	}}.Encode()); !got.Equal(ReplyVoteCommit) {
		t.Fatalf("prepare: %q", got)
	}
	// Tx 12 already aborted (latched outcome).
	s.Apply(Cmd{Kind: TxPrepare, Tx: 12, Cmds: []kvstore.Command{
		kvstore.Put("acct", []byte("999")),
	}}.Encode())
	// Tx 13: home-shard decision record.
	s.Apply(Cmd{Kind: TxDecide, Tx: 13, Outcome: commit.Committed}.Encode())
	s.TakeEvents()

	blob := s.Snapshot()
	r := NewStore()
	if err := r.Restore(blob); err != nil {
		t.Fatal(err)
	}

	// Restored node is transaction-correct:
	// (1) The prepare lock survives — a conflicting write is refused.
	if got := r.Apply(kvstore.Put("acct", []byte("7")).Encode()); !got.Equal(ReplyLocked) {
		t.Fatalf("restored node lost prepare lock: %q", got)
	}
	// (2) Tx 12's vote stays latched as abort.
	if got := r.Apply(Cmd{Kind: TxPrepare, Tx: 12}.Encode()); !got.Equal(ReplyVoteAbort) {
		t.Fatalf("restored node forgot its vote: %q", got)
	}
	// (3) The decision record replays identically.
	if got := r.Apply(Cmd{Kind: TxDecide, Tx: 13, Outcome: commit.Aborted}.Encode()); !got.Equal(ReplyDecidedCommit) {
		t.Fatalf("restored node lost decision record: %q", got)
	}
	// (4) Committing tx 11 applies the staged writes from the snapshot.
	if got := r.Apply(Cmd{Kind: TxCommit, Tx: 11}.Encode()); !got.Equal(ReplyTxOK) {
		t.Fatalf("commit after restore: %q", got)
	}
	if v, _ := r.KV().Get("acct"); string(v) != "50" {
		t.Fatalf("staged write lost: acct=%q", v)
	}
	// (5) The lock released; plain writes flow again.
	if got := r.Apply(kvstore.Put("acct", []byte("60")).Encode()); !got.Equal(kvstore.ReplyOK) {
		t.Fatalf("post-commit write: %q", got)
	}
}

func TestStoreSnapshotDeterministic(t *testing.T) {
	build := func() *Store {
		s := NewStore()
		s.Apply(kvstore.Put("k1", []byte("a")).Encode())
		s.Apply(kvstore.Put("k2", []byte("b")).Encode())
		s.Apply(Cmd{Kind: TxPrepare, Tx: 5, Cmds: []kvstore.Command{
			kvstore.Put("k3", []byte("c")), kvstore.Put("k4", []byte("d")),
		}}.Encode())
		s.Apply(Cmd{Kind: TxDecide, Tx: 6, Outcome: commit.Aborted}.Encode())
		return s
	}
	if !bytes.Equal(build().Snapshot(), build().Snapshot()) {
		t.Fatal("snapshots of identical stores differ")
	}
	// Restore → re-snapshot is byte-identical too.
	blob := build().Snapshot()
	r := NewStore()
	if err := r.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, r.Snapshot()) {
		t.Fatal("restore/re-snapshot not byte-identical")
	}
}

func TestStoreRestoreTruncationErrors(t *testing.T) {
	s := NewStore()
	s.Apply(kvstore.Put("key", []byte("val")).Encode())
	s.Apply(Cmd{Kind: TxPrepare, Tx: 3, Cmds: []kvstore.Command{
		kvstore.Put("x", []byte("y")),
	}}.Encode())
	blob := s.Snapshot()
	for n := 0; n < len(blob); n++ {
		r := NewStore()
		if err := r.Restore(blob[:n]); err == nil {
			t.Fatalf("truncation to %d/%d restored without error", n, len(blob))
		}
		// A failed restore must leave the store untouched.
		if !bytes.Equal(r.KV().Snapshot(), kvstore.New().Snapshot()) || len(det.SortedKeys(r.locks)) != 0 {
			t.Fatalf("failed restore at %d mutated store", n)
		}
	}
	if err := NewStore().Restore(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte restored without error")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 99 // unknown version
	if err := NewStore().Restore(bad); err == nil {
		t.Fatal("unknown version restored without error")
	}
	// An element count the bytes cannot hold must be refused before it
	// sizes a table — the lock count here, right after the kv bytes:
	// 0xFFFFFFFF, and one more than the bytes after it could hold at 10
	// bytes a lock.
	lockCount := 1 + 4 + int(binary.BigEndian.Uint32(blob[1:]))
	for _, count := range []uint32{0xFFFFFFFF, uint32(len(blob)-lockCount-4)/10 + 1} {
		bomb := append([]byte(nil), blob...)
		binary.BigEndian.PutUint32(bomb[lockCount:], count)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := NewStore().Restore(bomb)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 1<<20 {
			t.Fatalf("lock count %#x: err=%v after allocating %d bytes", count, err, grew)
		}
	}
	// The 9-byte form: version, empty kv, then the count.
	if err := NewStore().Restore([]byte{storeSnapVersion, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("9-byte blob with a 0xFFFFFFFF lock count restored without error")
	}
}

// A store snapshot written by the commit before internal/wire existed:
// the parent's Snapshot() of this exact store. The format is pinned in
// both directions.
func TestStoreSnapshotFormatPinned(t *testing.T) {
	const parentHex = "01000000250000000000000002000000020004616363740000000331303000046261736500000002763000" +
		"000002000461636374000000000000000b00037a6564000000000000000b00000001000000000000000b0000000200000011" +
		"02000461636374000000023530000000000000000e0300037a656400000000000000000000000200046163637400037a6564" +
		"00000001000000000000000c0200000001000000000000000d01"
	parent, err := hex.DecodeString(parentHex)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.Apply(kvstore.Put("base", []byte("v0")).Encode())
	s.Apply(kvstore.Put("acct", []byte("100")).Encode())
	s.Apply(Cmd{Kind: TxPrepare, Tx: 11, Cmds: []kvstore.Command{
		kvstore.Put("acct", []byte("50")), kvstore.Delete("zed"),
	}}.Encode())
	s.Apply(Cmd{Kind: TxPrepare, Tx: 12, Cmds: []kvstore.Command{
		kvstore.Put("acct", []byte("999")),
	}}.Encode())
	s.Apply(Cmd{Kind: TxDecide, Tx: 13, Outcome: commit.Committed}.Encode())
	if got := s.Snapshot(); !bytes.Equal(got, parent) {
		t.Fatalf("Snapshot() differs from the parent's bytes:\n got %x\nwant %x", got, parent)
	}
	r := NewStore()
	if err := r.Restore(parent); err != nil {
		t.Fatalf("parent-written snapshot does not restore: %v", err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, parent) {
		t.Fatalf("restore → snapshot differs from the parent's bytes:\n got %x", got)
	}
	if got := r.Apply(kvstore.Put("zed", nil).Encode()); !got.Equal(ReplyLocked) {
		t.Fatalf("restored store lost tx 11's lock on zed: %q", got)
	}
}
