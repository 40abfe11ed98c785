package raft

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

func openPersister(t *testing.T, dir string) *replog.Persister {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return replog.NewPersister(l)
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
	if fresh.LastIndex() != lead.LastIndex() {
		t.Fatalf("log length: %d vs %d", fresh.LastIndex(), lead.LastIndex())
	}
	for i := types.Seq(1); i <= lead.LastIndex(); i++ {
		if fresh.At(i).Term != lead.At(i).Term || !fresh.At(i).Val.Equal(lead.At(i).Val) {
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
	if fresh.LastIndex() != lead.LastIndex() {
		t.Fatalf("log length after incremental syncs: %d vs %d", fresh.LastIndex(), lead.LastIndex())
	}
}

func TestPersistTruncation(t *testing.T) {
	// A follower that persisted divergent entries truncates them after
	// rejoining; the journal must reflect the truncation.
	dir := t.TempDir()
	p := openPersister(t, dir)

	cfg := Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3}
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
	if fresh.LastIndex() != 2 {
		t.Fatalf("restored length %d, want 2 (truncated)", fresh.LastIndex())
	}
	if !fresh.At(2).Val.Equal(types.Value("B")) || fresh.At(2).Term != 3 {
		t.Fatalf("restored entry 2 = %+v", fresh.At(2))
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
	if reborn.term == 0 || reborn.LastIndex() == 0 {
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

// A Sync journals what changed since the last one, not a pass over the
// whole log: on a long log, one append is one record, and nothing new is
// none.
func TestSyncAfterOneAppendWritesOneRecord(t *testing.T) {
	l, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p := replog.NewPersister(l)
	n := soloLeader(t, 0)
	for i := 0; i < 100_000; i++ {
		n.Submit(types.Value{byte(i)})
	}
	records := func() int {
		count := 0
		if err := l.Replay(func(wal.Record) error { count++; return nil }); err != nil {
			t.Fatal(err)
		}
		return count
	}
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	before := records()
	n.Submit(types.Value("one more"))
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	if got := records() - before; got != 1 {
		t.Fatalf("a Sync after one append on a %d-entry log wrote %d records, want 1", n.LastIndex(), got)
	}
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	if got := records() - before; got != 1 {
		t.Fatalf("a Sync with nothing new wrote %d records", got-1)
	}
}

// The journal a fixed sequence of non-snapshotting Syncs writes — a vote,
// three appends, then a term change that truncates and re-appends — is
// pinned byte for byte: how many writes carry the records may change,
// the records may not.
func TestJournalBytesPinned(t *testing.T) {
	dir := t.TempDir()
	p := openPersister(t, dir)
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3})
	steps := []Message{
		{Kind: MsgRequestVote, From: 0, To: 1, Term: 1},
		{Kind: MsgAppend, From: 0, To: 1, Term: 2,
			Entries: []LogEntry{{Term: 2, Val: types.Value("a")}, {Term: 2, Val: types.Value("b")}, {Term: 2, Val: types.Value("c")}}},
		{Kind: MsgAppend, From: 2, To: 1, Term: 3, PrevIndex: 1, PrevTerm: 2,
			Entries: []LogEntry{{Term: 3, Val: types.Value("B")}, {Term: 3, Val: types.Value("C")}}},
	}
	for _, m := range steps {
		n.Step(m)
		n.Drain()
		if err := p.Sync(n); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "000000110100000000000000010000000000000001835c2afd0000001101000000000000000200000000000000006898a5d7" +
		"00000012020000000000000001000000000000000261a849925800000012020000000000000002000000000000000262e30f9bb2" +
		"00000012020000000000000003000000000000000263da3263140000001101000000000000000300000000000000009ca6739f" +
		"000000090300000000000000015021e78900000012020000000000000002000000000000000342d0108d1b" +
		"00000012020000000000000003000000000000000343e92d75bd"
	if hex.EncodeToString(got) != want {
		t.Fatalf("journal bytes moved:\n got %x\nwant %s", got, want)
	}
}

func TestRestoreRequiresFreshNode(t *testing.T) {
	dir := t.TempDir()
	p := openPersister(t, dir)
	n := New(0, Config{Peers: []types.NodeID{0}})
	if err := n.Journal().Entry(1, 1, nil); err != nil {
		t.Fatal(err)
	}
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
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3})
	if err := openPersister(t, dir).Restore(n); err != nil {
		t.Fatal(err)
	}
	if n.term != 3 || n.votedFor != -1 || n.SnapshotIndex() != 2 || n.LastIndex() != 5 {
		t.Fatalf("restored term=%d voted=%d snap=%d last=%d, want 3 -1 2 5", n.term, n.votedFor, n.SnapshotIndex(), n.LastIndex())
	}
	incr := smr.EncodeRequest(types.Request{Client: 9, SeqNo: 2, Op: kvstore.Incr("n", 1).Encode()})
	if e := n.At(4); e.Term != 2 || !e.Val.Equal(incr) {
		t.Fatalf("entry 4 = %+v", e)
	}
	if e := n.At(5); e.Term != 3 || e.Val != nil {
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

// FuzzRestore: Restore of any snapshot file and journal never panics. It
// fails, or yields a node whose re-journal restores to the same term,
// vote and log.
func FuzzRestore(f *testing.F) {
	// Seeds: the files the round-trip tests write — a journal with a vote,
	// appends and a truncation, then a snapshot with the suffix after it.
	dir := f.TempDir()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	p := replog.NewPersister(l)
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3})
	for _, m := range []Message{
		{Kind: MsgRequestVote, From: 0, To: 1, Term: 1},
		{Kind: MsgAppend, From: 0, To: 1, Term: 2, Entries: []LogEntry{{Term: 2, Val: types.Value("a")}, {Term: 2, Val: types.Value("b")}}},
		{Kind: MsgAppend, From: 2, To: 1, Term: 3, PrevIndex: 1, PrevTerm: 2, LeaderCommit: 2, Entries: []LogEntry{{Term: 3, Val: types.Value("B")}}},
	} {
		n.Step(m)
		n.Drain()
		if err := p.Sync(n); err != nil {
			f.Fatal(err)
		}
	}
	seed := func() {
		snap, _ := os.ReadFile(filepath.Join(dir, "snapshot"))
		journal, _ := os.ReadFile(filepath.Join(dir, "000001.wal"))
		f.Add(snap, journal)
	}
	seed()
	n.Compact(1, []byte("state@1"))
	n.Step(Message{Kind: MsgAppend, From: 2, To: 1, Term: 3, PrevIndex: 2, PrevTerm: 3, Entries: []LogEntry{{Term: 3, Val: types.Value("C")}}})
	if err := p.Sync(n); err != nil {
		f.Fatal(err)
	}
	seed()
	l.Close()

	cfg := Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3}
	f.Fuzz(func(t *testing.T, snap, journal []byte) {
		dir := t.TempDir()
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "snapshot"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "000001.wal"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		n := New(1, cfg)
		if err := openPersister(t, dir).Restore(n); err != nil {
			return
		}
		again := t.TempDir()
		if err := openPersister(t, again).Sync(n); err != nil {
			t.Fatal(err)
		}
		m := New(1, cfg)
		if err := openPersister(t, again).Restore(m); err != nil {
			t.Fatalf("re-journal of a restored node does not restore: %v", err)
		}
		if m.term != n.term || m.votedFor != n.votedFor || m.SnapshotIndex() != n.SnapshotIndex() || m.LastIndex() != n.LastIndex() {
			t.Fatalf("re-journal restored term %d vote %d snap %d last %d, want %d %d %d %d",
				m.term, m.votedFor, m.SnapshotIndex(), m.LastIndex(), n.term, n.votedFor, n.SnapshotIndex(), n.LastIndex())
		}
		for i := n.SnapshotIndex(); i <= n.LastIndex(); i++ {
			if m.At(i).Term != n.At(i).Term || !m.At(i).Val.Equal(n.At(i).Val) {
				t.Fatalf("re-journal restored entry %d as %+v, want %+v", i, m.At(i), n.At(i))
			}
		}
	})
}
