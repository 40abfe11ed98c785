package raft

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

func openPersister(t *testing.T, dir string) *Persister {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return NewPersister(l)
}

func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := openPersister(t, dir)

	c := NewCluster(3, nil, Config{Seed: 1}, nil)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	for i := 1; i <= 5; i++ {
		lead.Submit(types.Value{byte(i)})
	}
	c.Run(100)
	if err := p.Sync(lead); err != nil {
		t.Fatal(err)
	}

	// Rebuild a fresh node from the journal.
	p2 := openPersister(t, dir)
	fresh := New(lead.id, lead.cfg)
	if err := p2.Restore(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.term != lead.term || fresh.votedFor != lead.votedFor {
		t.Fatalf("hard state: got (%d,%v), want (%d,%v)", fresh.term, fresh.votedFor, lead.term, lead.votedFor)
	}
	if fresh.lastIndex() != lead.lastIndex() {
		t.Fatalf("log length: %d vs %d", fresh.lastIndex(), lead.lastIndex())
	}
	for i := types.Seq(1); i <= lead.lastIndex(); i++ {
		if fresh.log[i].Term != lead.log[i].Term || !fresh.log[i].Val.Equal(lead.log[i].Val) {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestPersistIncrementalSyncs(t *testing.T) {
	dir := t.TempDir()
	p := openPersister(t, dir)
	c := NewCluster(3, nil, Config{Seed: 2}, nil)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	// Sync after every batch; repeated syncs with no changes append
	// nothing new (replay count stays consistent).
	for i := 1; i <= 3; i++ {
		lead.Submit(types.Value{byte(i)})
		c.Run(30)
		if err := p.Sync(lead); err != nil {
			t.Fatal(err)
		}
		if err := p.Sync(lead); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	p2 := openPersister(t, dir)
	fresh := New(lead.id, lead.cfg)
	if err := p2.Restore(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.lastIndex() != lead.lastIndex() {
		t.Fatalf("log length after incremental syncs: %d vs %d", fresh.lastIndex(), lead.lastIndex())
	}
}

func TestPersistTruncation(t *testing.T) {
	// A follower that persisted divergent entries truncates them after
	// rejoining; the journal must reflect the truncation.
	dir := t.TempDir()
	p := openPersister(t, dir)

	cfg := Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3}.withDefaults()
	n := New(1, cfg)
	// Feed divergent entries directly: term-2 leader appends 3 entries.
	n.Step(Message{Kind: MsgAppend, From: 0, To: 1, Term: 2, PrevIndex: 0, PrevTerm: 0,
		Entries: []LogEntry{{Term: 2, Val: types.Value("a")}, {Term: 2, Val: types.Value("b")}, {Term: 2, Val: types.Value("c")}}})
	n.Drain()
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	// A term-3 leader overwrites index 2 onward.
	n.Step(Message{Kind: MsgAppend, From: 2, To: 1, Term: 3, PrevIndex: 1, PrevTerm: 2,
		Entries: []LogEntry{{Term: 3, Val: types.Value("B")}}})
	n.Drain()
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}

	p2 := openPersister(t, dir)
	fresh := New(1, cfg)
	if err := p2.Restore(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.lastIndex() != 2 {
		t.Fatalf("restored length %d, want 2 (truncated)", fresh.lastIndex())
	}
	if !fresh.log[2].Val.Equal(types.Value("B")) || fresh.log[2].Term != 3 {
		t.Fatalf("restored entry 2 = %+v", fresh.log[2])
	}
}

func TestCrashRecoveryPreservesSafety(t *testing.T) {
	// Full loop: run a cluster with per-tick persistence for node 2,
	// commit entries, destroy node 2, rebuild it from its journal, and
	// verify the cluster continues with log matching intact and the
	// restored node's vote/term preventing double voting.
	dir := t.TempDir()
	p := openPersister(t, dir)
	c := NewCluster(3, nil, Config{Seed: 4}, kvSM)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	victim := c.Nodes[2]
	for i := 1; i <= 5; i++ {
		lead.Submit(req(1, uint64(i), kvstore.Incr("n", 1)))
		c.RunPumped(20)
		if err := p.Sync(victim); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash(2)
	c.RunPumped(50)

	// Rebuild node 2 from disk and splice it into the cluster.
	p2 := openPersister(t, dir)
	reborn := New(2, victim.cfg)
	if err := p2.Restore(reborn); err != nil {
		t.Fatal(err)
	}
	if reborn.term == 0 || reborn.lastIndex() == 0 {
		t.Fatal("journal restored nothing")
	}
	c.Set(2, reborn, kvstore.New())
	c.Restart(2)

	lead2 := c.WaitLeader(1000)
	if lead2 == nil {
		t.Fatal("no leader after recovery")
	}
	lead2.Submit(req(1, 6, kvstore.Incr("n", 1)))
	ok := c.RunUntil(func() bool { return reborn.CommitFrontier() >= 6 }, 3000)
	if !ok {
		t.Fatalf("recovered node stalled at %d", reborn.CommitFrontier())
	}
	if err := c.CheckLogMatching(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRequiresFreshNode(t *testing.T) {
	dir := t.TempDir()
	p := openPersister(t, dir)
	n := New(0, Config{Peers: []types.NodeID{0}}.withDefaults())
	n.log = append(n.log, LogEntry{Term: 1})
	if err := p.Restore(n); err == nil {
		t.Fatal("restore into a dirty node accepted")
	}
}

// A WAL directory written by the commit before internal/wire existed —
// a follower that journaled three entries, compacted at index 2 with an
// smr.Executor's state (so the snapshot file holds a snapshot/v1 blob),
// appended two more, and had index 5 overwritten by a term-3 leader —
// must restore to the same node, executor and store today.
func TestRestoreReadsParentWrittenWAL(t *testing.T) {
	files := map[string]string{
		"snapshot": "57534e315200000097534e50310000000000000002000000000000000200000003000000000000000000000000000000" +
			"0100000000000000020000005f00000000000000030000000200000000000000070000000000000001000000024f4b00" +
			"000000000000090000000000000001000000023431000000230000000000000002000000020005616c70686100000003" +
			"6f6e6500016e0000000234312b261f5e469f0895",
		"000001.wal": "0000001101000000000000000200000000000000006898a5d70000003002000000000000000300000000000000020000" +
			"0000000000070000000000000002020004626574610000000000000000b30808980000002e0200000000000000040000" +
			"000000000002000000000000000900000000000000020500016e00000001310000000020316ad7000000170200000000" +
			"000000050000000000000002646f6f6d656435d6e4300000001101000000000000000300000000000000009ca6739f00" +
			"00000903000000000000000465d0f3950000001102000000000000000500000000000000035c85fcd8",
	}
	dir := t.TempDir()
	for name, h := range files {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3}.withDefaults())
	if err := openPersister(t, dir).Restore(n); err != nil {
		t.Fatal(err)
	}
	if n.term != 3 || n.votedFor != -1 || n.snapIndex != 2 || n.lastIndex() != 5 {
		t.Fatalf("restored term=%d voted=%d snap=%d last=%d, want 3 -1 2 5", n.term, n.votedFor, n.snapIndex, n.lastIndex())
	}
	incr := smr.EncodeRequest(types.Request{Client: 9, SeqNo: 2, Op: kvstore.Incr("n", 1).Encode()})
	if e := n.at(4); e.Term != 2 || !e.Val.Equal(incr) {
		t.Fatalf("entry 4 = %+v", e)
	}
	if e := n.at(5); e.Term != 3 || e.Val != nil {
		t.Fatalf("entry 5 = %+v, want the term-3 no-op that replaced %q", e, "doomed")
	}
	snap := n.TakeInstalledSnapshot()
	if snap == nil || snap.LastIndex != 2 || snap.LastTerm != 2 || len(snap.Members) != 3 {
		t.Fatalf("installed snapshot = %+v", snap)
	}
	kv := kvstore.New()
	exec := smr.NewExecutor(1, kv)
	if err := exec.RestoreState(snap.State); err != nil {
		t.Fatal(err)
	}
	alpha, _ := kv.Get("alpha")
	cnt, _ := kv.Get("n")
	if exec.NextSlot() != 3 || string(alpha) != "one" || string(cnt) != "41" {
		t.Fatalf("restored executor next=%d alpha=%q n=%q", exec.NextSlot(), alpha, cnt)
	}
	// Client 9's session survived: replaying its first request is
	// answered from the dedup table, not executed again.
	first := smr.EncodeRequest(types.Request{Client: 9, SeqNo: 1, Op: kvstore.Incr("n", 41).Encode()})
	if r := exec.Commit(types.Decision{Slot: 3, Val: first}); len(r) != 1 || string(r[0].Result) != "41" {
		t.Fatalf("replayed request answered %+v", r)
	}
	if !bytes.Equal(exec.SnapshotState()[8:], snap.State[8:]) {
		t.Fatal("executor state re-encodes differently from the parent's bytes")
	}
}
