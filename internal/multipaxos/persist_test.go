package multipaxos

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

func openPersister(t testing.TB, dir string) *replog.Persister {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return replog.NewPersister(l)
}

// accepted lists what n holds as an acceptor above its compacted prefix.
func accepted(n *Node) []Entry { return n.Held(n.SnapshotIndex()) }

// sameAcceptor fails unless got restored want's promise, compacted
// prefix and accepted slots.
func sameAcceptor(t *testing.T, got, want *Node) {
	t.Helper()
	if got.ballot != want.ballot || got.SnapshotIndex() != want.SnapshotIndex() {
		t.Fatalf("restored ballot %v snapshot %d, want %v %d", got.ballot, got.SnapshotIndex(), want.ballot, want.SnapshotIndex())
	}
	if g, w := accepted(got), accepted(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("restored accepted slots\n%+v\nwant\n%+v", g, w)
	}
}

// A leader's and a follower's promise and accepted slots, journaled a
// slot at a time, compacted and journaled on, restore into fresh nodes;
// the snapshot is then the host's to take.
func TestPersistRoundTrip(t *testing.T) {
	c := NewCluster(3, nil, Config{Seed: 1}, nil)
	lead := c.WaitLeader(500)
	if lead == nil {
		t.Fatal("no leader")
	}
	nodes := []*Node{lead, c.Nodes[(lead.id+1)%3]}
	pers, dirs := make([]*replog.Persister, 2), make([]string, 2)
	for i := range pers {
		dirs[i] = t.TempDir()
		pers[i] = openPersister(t, dirs[i])
	}
	syncAll := func() {
		for i, n := range nodes {
			if err := pers[i].Sync(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i <= 5; i++ {
		lead.Submit(types.Value{byte(i)})
		c.Run(10)
		syncAll()
	}
	for _, n := range nodes {
		if !n.Compact(2, []byte("state@2")) {
			t.Fatalf("node %v did not compact (frontier %d)", n.id, n.CommitFrontier())
		}
	}
	for _, v := range []string{"six", "seven"} {
		lead.Submit(types.Value(v))
		c.Run(10)
		syncAll()
	}

	for i, n := range nodes {
		fresh := New(n.id, n.cfg)
		if err := openPersister(t, dirs[i]).Restore(fresh); err != nil {
			t.Fatal(err)
		}
		if len(accepted(n)) == 0 {
			t.Fatalf("node %v accepted nothing above the snapshot: the test tests nothing", n.id)
		}
		sameAcceptor(t, fresh, n)
		snap := fresh.TakeInstalledSnapshot()
		if snap == nil || snap.LastIndex != 2 || string(snap.State) != "state@2" || len(snap.Members) != 3 {
			t.Fatalf("node %v: installed snapshot %+v", n.id, snap)
		}
		if fresh.CommitFrontier() != 2 {
			t.Fatalf("node %v: restored frontier %d, want the snapshot's 2", n.id, fresh.CommitFrontier())
		}
	}
}

// The ballots of pinnedSteps, and their entry tags.
var (
	b10, b22     = types.Ballot{Num: 1, Owner: 0}, types.Ballot{Num: 2, Owner: 2}
	tag10, tag22 = uint64(1 << 16), uint64(2<<16 | 2)
)

// pinnedSteps: node 1 promises ballot 1.0, accepts slots 1–3 under it
// and learns that slot 1 is decided, then ballot 2.2 overwrites slot 2.
var pinnedSteps = []Message{
	{Kind: MsgPrepare, From: 0, To: 1, Ballot: b10},
	{Kind: MsgAccept, From: 0, To: 1, Ballot: b10, Slot: 0, Entries: []Entry{{Term: tag10, Val: types.Value("a")}}},
	{Kind: MsgAccept, From: 0, To: 1, Ballot: b10, Slot: 1, Prev: tag10, Entries: []Entry{{Term: tag10, Val: types.Value("b")}}},
	{Kind: MsgAccept, From: 0, To: 1, Ballot: b10, Slot: 2, Prev: tag10, Entries: []Entry{{Term: tag10, Val: types.Value("c")}}, Commit: 1},
	{Kind: MsgAccept, From: 2, To: 1, Ballot: b22, Slot: 1, Prev: tag10, Entries: []Entry{{Term: tag22, Val: types.Value("B")}}},
}

// The journal pinnedSteps write, one Sync each, is pinned byte for byte:
// a promise is hard state (num, owner); an accept is an entry tagged
// num<<16 | owner; the overwrite journals the new ballot, a truncate
// to slot 1, and slots 2 and 3 again.
func TestJournalBytesPinned(t *testing.T) {
	dir := t.TempDir()
	p := openPersister(t, dir)
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3})
	for _, m := range pinnedSteps {
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
	const want = "0000001101000000000000000100000000000000007137a9fe" + // promise 1.0
		"000000120200000000000000010000000000010000615249080e" + // slot 1, 1.0, "a"
		"00000012020000000000000002000000000001000062190f01e4" + // slot 2, 1.0, "b"
		"000000120200000000000000030000000000010000632032f942" + // slot 3, 1.0, "c"
		"00000011010000000000000002000000000000000289a3d520" + // promise 2.2
		"000000090300000000000000015021e789" + // truncate to slot 1
		"000000120200000000000000020000000000020002427cd536ed" + // slot 2, 2.2, "B"
		"000000120200000000000000030000000000010000632032f942" // slot 3, 1.0, "c"
	if hex.EncodeToString(got) != want {
		t.Fatalf("journal bytes moved:\n got %x\nwant %s", got, want)
	}
}

func TestRestoreRequiresFreshNode(t *testing.T) {
	n := New(0, Config{Peers: []types.NodeID{0}})
	n.ballot = types.Ballot{Num: 1}
	if err := openPersister(t, t.TempDir()).Restore(n); err == nil {
		t.Fatal("restore into a node that has promised a ballot accepted")
	}
}

// A snapshot file raft wrote (kind 'R') is not a Multi-Paxos prefix.
func TestRestoreRefusesARaftSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	blob := snapshot.Encode(snapshot.Snapshot{LastIndex: 4, LastTerm: 2, Members: []types.NodeID{0, 1, 2}})
	none := func(uint64, func(i, tag uint64, val []byte)) error { return nil }
	if err := wal.NewJournal(l, 'R').Sync(wal.State{SnapIndex: 4, Snapshot: blob}, none); err != nil {
		t.Fatal(err)
	}
	l.Close()
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}})
	if err := openPersister(t, dir).Restore(n); err == nil {
		t.Fatal("a raft snapshot file restored into a Multi-Paxos node")
	}
}

// A message under a ballot that does not pack into a tag is dropped: the
// node promises and accepts nothing, and its Sync writes nothing.
func TestSyncRefusesABallotThatDoesNotFit(t *testing.T) {
	dir := t.TempDir()
	p := openPersister(t, dir)
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}})
	n.Step(Message{Kind: MsgAccept, From: 0, To: 1, Ballot: types.Ballot{Num: 1 << 48}, Entries: []Entry{{Term: 1 << 16, Val: types.Value("x")}}})
	if !n.ballot.IsZero() || n.LastIndex() != 0 || len(n.Drain()) != 0 {
		t.Fatalf("a 49-bit ballot number was taken: promised %v, log through %d", n.ballot, n.LastIndex())
	}
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "000001.wal")); err != nil || len(b) != 0 {
		t.Fatalf("the Sync left %d bytes (%v)", len(b), err)
	}
}

// The negative control for the journal: leader 0 gets X chosen at slot 1
// with follower 2's Accept alone, then 2 restarts and follower 1
// campaigns with a higher ballot, hearing only from 2. Restarted from its
// journal, 2 reports X and the new leader proposes X again; restarted
// fresh, 2 has forgotten it, and the new leader decides another value
// for slot 1 — two values chosen, which learn would panic on if they
// ever met.
func TestJournalCarriesTheChosenValue(t *testing.T) {
	x, y := types.Value("X"), types.Value("Y")
	for _, journaled := range []bool{true, false} {
		name := "fresh"
		if journaled {
			name = "journaled"
		}
		t.Run(name, func(t *testing.T) {
			g := newTrio(t)
			lead := g.elect(0, nil)
			p := openPersister(t, t.TempDir())
			without := func(id types.NodeID) func(Message) bool {
				return func(m Message) bool { return m.From == id || m.To == id }
			}
			lead.Submit(x)
			g.pump(without(1))
			if lead.CommitFrontier() < 1 || !lead.At(1).Val.Equal(x) {
				t.Fatal("node 0 did not choose X at slot 1 with node 2's accept")
			}
			if err := p.Sync(g.nodes[2]); err != nil {
				t.Fatal(err)
			}

			reborn := New(2, g.nodes[2].cfg)
			g.nodes[2] = reborn
			if journaled {
				if err := p.Restore(reborn); err != nil {
					t.Fatal(err)
				}
				g.outwait(2) // a restored node refuses other candidates for a timeout
			}
			g.nodes[1].campaign()
			sent := g.pump(without(0))
			newLead := g.nodes[1]
			if !newLead.IsLeader() {
				t.Fatal("node 1 did not win with node 2's promise")
			}
			newLead.Submit(y)
			sent = append(sent, g.pump(without(0))...)
			var proposed types.Value
			for _, m := range sent {
				if carries(m, 1) {
					proposed = m.Entries[0-m.Slot].Val
				}
			}
			if newLead.CommitFrontier() < 1 {
				t.Fatal("node 1 decided nothing at slot 1")
			}
			chosen := newLead.At(1).Val
			if journaled && (!proposed.Equal(x) || !chosen.Equal(x)) {
				t.Fatalf("restored from its journal: node 1 proposed %q and decided %q at slot 1, want X", proposed, chosen)
			}
			if !journaled && chosen.Equal(x) {
				t.Fatal("restarted fresh, node 2 still carried X: the control shows nothing")
			}
		})
	}
}

// FuzzRestore: Restore of any snapshot file and journal never panics. It
// fails, or yields a node whose re-journal restores to the same ballot,
// compacted prefix and accepted slots.
func FuzzRestore(f *testing.F) {
	// Seeds: the files the pinned steps write, then a snapshot through
	// slot 1 with the suffix after it.
	dir := f.TempDir()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	p := replog.NewPersister(l)
	cfg := Config{Peers: []types.NodeID{0, 1, 2}, Seed: 3}
	n := New(1, cfg)
	for _, m := range pinnedSteps {
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
	if !n.Compact(1, []byte("state@1")) {
		f.Fatal("compact")
	}
	n.Step(Message{Kind: MsgAccept, From: 2, To: 1, Ballot: b22, Slot: 2, Prev: tag22, Entries: []Entry{{Term: tag22, Val: types.Value("d")}}})
	if err := p.Sync(n); err != nil {
		f.Fatal(err)
	}
	seed()
	l.Close()

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
		sameAcceptor(t, m, n)
	})
}
