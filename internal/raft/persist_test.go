package raft

import (
	"testing"

	"fortyconsensus/internal/kvstore"
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
