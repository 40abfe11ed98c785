package replog_test

import (
	"strings"
	"testing"

	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

func openLog(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

var trio = []types.NodeID{0, 1, 2}

// matches asks raft follower n whether its log holds an entry of term
// term at index prev, by an append that follows it, and reports the
// answer.
func matches(t *testing.T, n *raft.Node, prev types.Seq, term raft.Term) bool {
	t.Helper()
	n.Step(raft.Message{Kind: raft.MsgAppend, From: 0, To: 1, Term: 2, PrevIndex: prev, PrevTerm: term,
		Entries: []raft.LogEntry{{Term: 2, Val: types.Value("next")}}})
	out := n.Drain()
	if len(out) != 1 || out[0].Kind != raft.MsgAppendResp {
		t.Fatalf("append after %d drew %+v", prev, out)
	}
	return out[0].Success
}

// A raft follower compacted in the middle of a page keeps the compacted
// entry's term as its sentinel, and so does the node restored from its
// journal: an append that follows the snapshot's last entry matches only
// under that term.
func TestRaftCompactionMidPageKeepsTheSentinelTerm(t *testing.T) {
	n := raft.New(1, raft.Config{Peers: trio})
	batch := make([]raft.LogEntry, 300)
	for i := range batch {
		batch[i] = raft.LogEntry{Term: 2, Val: types.Value{byte(i)}}
	}
	n.Step(raft.Message{Kind: raft.MsgAppend, From: 0, To: 1, Term: 2, Entries: batch, LeaderCommit: 300})
	n.Drain()
	const upTo = replog.PageSlots/2 + 2
	if !n.Compact(upTo, []byte("state")) || n.SnapshotIndex() != upTo {
		t.Fatalf("compaction through %d refused", upTo)
	}
	p := replog.NewPersister(openLog(t, t.TempDir()))
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	fresh := raft.New(1, raft.Config{Peers: trio})
	if err := p.Restore(fresh); err != nil {
		t.Fatal(err)
	}
	for i, node := range []*raft.Node{n, fresh} {
		if matches(t, node, upTo, 1) || !matches(t, node, upTo, 2) {
			t.Fatalf("node %d of (compacted, restored): the sentinel at %d does not carry term 2", i, upTo)
		}
	}
}

// A log is dense, raft's and a Multi-Paxos acceptor's alike, so a
// journal that skips an index does not restore.
func TestRestoreRefusesARaftAppendGap(t *testing.T) {
	for _, kind := range []uint8{'R', 'M'} {
		dir := t.TempDir()
		j := wal.NewJournal(openLog(t, dir), kind)
		err := j.Sync(wal.State{Hard: wal.Hard{1, 1}, Changed: 1}, func(_ uint64, add func(i, tag uint64, val []byte)) error {
			add(1, 1, []byte("a"))
			add(3, 1, []byte("c"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var n replog.Durable = multipaxos.New(1, multipaxos.Config{Peers: trio})
		if kind == 'R' {
			n = raft.New(1, raft.Config{Peers: trio})
		}
		err = replog.NewPersister(openLog(t, dir)).Restore(n)
		if err == nil || !strings.Contains(err.Error(), "append gap") {
			t.Fatalf("kind %c restored a journal with a gap: %v", kind, err)
		}
	}
}
