package wal_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

var peers = []types.NodeID{0, 1, 2}

func entries(term raft.Term, vals ...string) []raft.LogEntry {
	es := make([]raft.LogEntry, len(vals))
	for i, v := range vals {
		es[i] = raft.LogEntry{Term: uint64(term), Val: types.Value(v)}
	}
	return es
}

// vals64 and overwrite64: a term-3 leader replaces node 1's log after
// index 1 with 64 entries.
var (
	vals64 = func() (vs []string) {
		for i := 0; i < 64; i++ {
			vs = append(vs, fmt.Sprint("v", i))
		}
		return vs
	}()
	overwrite64 = raft.Message{Kind: raft.MsgAppend, From: 2, Term: 3, PrevIndex: 1, PrevTerm: 2, Entries: entries(3, vals64...)}
)

func step(n *raft.Node, m raft.Message) []raft.Message {
	m.To = 1
	n.Step(m)
	return n.Drain()
}

// votedAndCommitted is node 1 after voting for node 0 in term 1 and
// learning five entries of term 1, all committed and applied.
func votedAndCommitted() *raft.Node {
	n := raft.New(1, raft.Config{Peers: peers, Seed: 3})
	step(n, raft.Message{Kind: raft.MsgRequestVote, From: 0, Term: 1})
	step(n, raft.Message{Kind: raft.MsgAppend, From: 0, Term: 1, LeaderCommit: 5,
		Entries: entries(1, "e1", "e2", "e3", "e4", "e5")})
	n.TakeDecisions()
	return n
}

func restore(t *testing.T, dir string) *raft.Node {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := raft.New(1, raft.Config{Peers: peers, Seed: 3})
	if err := replog.NewPersister(l).Restore(n); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return n
}

// term reads a restored node's term from outside, as acceptorState does
// for Multi-Paxos: off the refusal an append of term 0 draws (a node
// still in term 0 draws none).
func term(n *raft.Node) raft.Term {
	for _, m := range step(n, raft.Message{Kind: raft.MsgAppend, From: 0}) {
		return m.Term
	}
	return 0
}

// values lists the restored log from index 1 as "term:value", reading
// entries the snapshot covers as "snap". It reads from outside, as the
// leader of a later term: an empty append naming (index, term) draws no
// answer exactly when the log holds that entry, and one that commits the
// last entry hands every value back as a decision. n is that leader's
// follower afterwards.
func values(n *raft.Node) []string {
	const later raft.Term = 1 << 20
	matches := func(i types.Seq, t raft.Term, commit types.Seq) bool {
		return len(step(n, raft.Message{Kind: raft.MsgAppend, From: 0, Term: later, PrevIndex: i, PrevTerm: t, LeaderCommit: commit})) == 0
	}
	var out []string
	last := n.SnapshotIndex()
	for i := types.Seq(1); i <= last; i++ {
		out = append(out, "snap")
	}
	var terms []raft.Term
	for {
		t := raft.Term(1)
		for t < 10 && !matches(last+1, t, 0) {
			t++
		}
		if t == 10 {
			break
		}
		terms = append(terms, t)
		last++
	}
	if len(terms) > 0 {
		matches(last, terms[len(terms)-1], last)
	}
	for i, d := range n.TakeDecisions() {
		out = append(out, fmt.Sprintf("%d:%s", terms[i], d.Val))
	}
	return out
}

// grantsVote reports whether n votes for node 2 in term with a log far
// ahead of its own.
func grantsVote(n *raft.Node, term raft.Term) bool {
	for _, m := range step(n, raft.Message{Kind: raft.MsgRequestVote, From: 2, Term: term, LastLogIndex: 100, LastLogTerm: 9}) {
		if m.Kind == raft.MsgVote {
			return m.Granted
		}
	}
	return false
}

// One Sync that journals a term change, a truncation and 64 entries is
// one write and one fsync.
func TestSyncIsOneWriteAndOneFsync(t *testing.T) {
	dir := t.TempDir()
	f := &wal.Faults{}
	l, err := wal.OpenFaulty(dir, wal.Options{}, f)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p := replog.NewPersister(l)
	n := raft.New(1, raft.Config{Peers: peers, Seed: 3})
	step(n, raft.Message{Kind: raft.MsgAppend, From: 0, Term: 2, Entries: entries(2, "a", "b", "c")})
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	step(n, overwrite64)
	f.Ops = nil
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write 000001.wal", "sync 000001.wal"}; !reflect.DeepEqual(f.Ops, want) {
		t.Fatalf("a Sync of hard state, truncate and 64 entries did %q, want %q", f.Ops, want)
	}
	records := 0
	if err := l.Replay(func(wal.Record) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}
	if want := 1 + 3 + 1 + 1 + 64; records != want {
		t.Fatalf("journal holds %d records, want %d", records, want)
	}
}

// A snapshotting Sync makes the snapshot durable — its fsync, the rename
// and a directory fsync — before it starts on the journal that replaces
// the old one.
func TestSnapshotSyncOrder(t *testing.T) {
	dir := t.TempDir()
	f := &wal.Faults{}
	l, err := wal.OpenFaulty(dir, wal.Options{}, f)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p := replog.NewPersister(l)
	n := votedAndCommitted()
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	if !n.Compact(3, []byte("state@3")) {
		t.Fatal("compact")
	}
	f.Ops = nil
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"open snapshot.tmp", "write snapshot.tmp", "sync snapshot.tmp", "close snapshot.tmp",
		"rename snapshot.tmp snapshot", "open .", "sync .", "close .",
		"open 000001.wal.tmp", "write 000001.wal.tmp", "sync 000001.wal.tmp", "close 000001.wal.tmp",
		"rename 000001.wal.tmp 000001.wal", "open .", "sync .", "close .",
		"open 000001.wal", "close 000001.wal",
	}
	if !reflect.DeepEqual(f.Ops, want) {
		t.Fatalf("snapshotting Sync did\n%s\nwant\n%s", strings.Join(f.Ops, "\n"), strings.Join(want, "\n"))
	}
}

// A crash at any step of a snapshotting Sync leaves a journal that
// restores: the vote of the last completed Sync still binds, and the log
// still holds every entry that Sync held, contiguous.
func TestSnapshotSyncCrashMatrix(t *testing.T) {
	for k := 0; ; k++ {
		dir := t.TempDir()
		f := &wal.Faults{}
		l, err := wal.OpenFaulty(dir, wal.Options{}, f)
		if err != nil {
			t.Fatal(err)
		}
		p := replog.NewPersister(l)
		n := votedAndCommitted()
		if err := p.Sync(n); err != nil {
			t.Fatal(err)
		}
		if !n.Compact(3, []byte("state@3")) {
			t.Fatal("compact")
		}
		f.CrashAfter(k)
		syncErr := p.Sync(n)
		l.Close()

		got := restore(t, dir)
		if tm := term(got); tm < 1 || grantsVote(got, 1) {
			t.Fatalf("crash after %d operations (%q): restored term %d grants a second vote in term 1", k, f.Ops, tm)
		}
		want := []string{"1:e1", "1:e2", "1:e3", "1:e4", "1:e5"}
		if s := got.SnapshotIndex(); s == 3 {
			copy(want, []string{"snap", "snap", "snap"})
		} else if s != 0 {
			t.Fatalf("crash after %d operations: snapshot index %d", k, s)
		}
		if v := values(got); !reflect.DeepEqual(v, want) {
			t.Fatalf("crash after %d operations (%q): restored log %q, want %q", k, f.Ops, v, want)
		}
		if syncErr == nil {
			if k < 10 {
				t.Fatalf("a snapshotting Sync took only %d operations", k)
			}
			return
		}
	}
}

// The same fault seams under the Multi-Paxos mapping: node 1 of a trio
// as an acceptor, stepped by hand.

var ballot1, ballot2 = types.Ballot{Num: 1, Owner: 0}, types.Ballot{Num: 2, Owner: 2}

// tag is b packed as an entry's tag: num in the high 48 bits, owner in
// the low 16.
func tag(b types.Ballot) uint64 { return b.Num<<16 | uint64(b.Owner) }

// accept hands n an Accept under b of val at slot, from a leader whose
// log agrees with n's below it.
func accept(n *multipaxos.Node, b types.Ballot, slot types.Seq, val string) {
	n.Step(multipaxos.Message{Kind: multipaxos.MsgAccept, From: b.Owner, To: 1, Ballot: b, Slot: slot - 1, Prev: n.At(slot - 1).Term,
		Entries: []multipaxos.Entry{{Term: tag(b), Val: types.Value(val)}}})
	n.Drain()
}

// acceptedAndCommitted is node 1 after accepting five slots under ballot
// 1.0 and learning from the leader's heartbeat that all five are chosen.
func acceptedAndCommitted() *multipaxos.Node {
	n := multipaxos.New(1, multipaxos.Config{Peers: peers, Seed: 3})
	for s := types.Seq(1); s <= 5; s++ {
		accept(n, ballot1, s, fmt.Sprint("e", s))
	}
	n.Step(multipaxos.Message{Kind: multipaxos.MsgAccept, From: 0, To: 1, Ballot: ballot1, Slot: 5, Prev: tag(ballot1), Commit: 5})
	n.Drain()
	n.TakeDecisions()
	return n
}

func restoreAcceptor(t *testing.T, dir string) *multipaxos.Node {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := multipaxos.New(1, multipaxos.Config{Peers: peers, Seed: 3})
	if err := replog.NewPersister(l).Restore(n); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// A restored acceptor ignores other nodes' Prepares for an election
	// timeout (the voting rule), and acceptorState reads it with two.
	for i := 0; i < replog.DefaultElector(replog.ElectorConfig{}).ElectionTimeoutTicks; i++ {
		n.Tick()
	}
	if sent := n.Drain(); len(sent) != 0 {
		t.Fatalf("the restored acceptor sent %d messages while its voting rule ran out", len(sent))
	}
	return n
}

// acceptorState reads a restored acceptor from outside: its promise from
// the Nack a Prepare of the zero ballot draws, and its accepted slots
// from the Ack of a Prepare above every ballot, as "slot:ballot:value",
// with the snapshot's slots as "snap".
func acceptorState(n *multipaxos.Node) (types.Ballot, []string) {
	var promised types.Ballot
	n.Step(multipaxos.Message{Kind: multipaxos.MsgPrepare, From: 2, To: 1})
	for _, m := range n.Drain() {
		if m.Kind == multipaxos.MsgNack {
			promised = m.Ballot
		}
	}
	var out []string
	for i := types.Seq(1); i <= n.SnapshotIndex(); i++ {
		out = append(out, "snap")
	}
	n.Step(multipaxos.Message{Kind: multipaxos.MsgPrepare, From: 2, To: 1, Ballot: types.Ballot{Num: 99, Owner: 2}, Slot: n.SnapshotIndex()})
	for _, m := range n.Drain() {
		for k, e := range m.Entries {
			b := types.Ballot{Num: e.Term >> 16, Owner: types.NodeID(e.Term & 0xFFFF)}
			out = append(out, fmt.Sprintf("%d:%v:%s", m.Slot+1+types.Seq(k), b, e.Val))
		}
	}
	return promised, out
}

// One Multi-Paxos Sync that journals a ballot change, an overwritten slot
// and 64 accepts past it is one write and one fsync.
func TestMultiPaxosSyncIsOneWriteAndOneFsync(t *testing.T) {
	f := &wal.Faults{}
	l, err := wal.OpenFaulty(t.TempDir(), wal.Options{}, f)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p := replog.NewPersister(l)
	n := multipaxos.New(1, multipaxos.Config{Peers: peers, Seed: 3})
	for s, v := range []string{"a", "b", "c"} {
		accept(n, ballot1, types.Seq(s+1), v)
	}
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	accept(n, ballot2, 2, "B")
	for s := types.Seq(3); s < 3+64; s++ {
		accept(n, ballot2, s, fmt.Sprint("v", s))
	}
	f.Ops = nil
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write 000001.wal", "sync 000001.wal"}; !reflect.DeepEqual(f.Ops, want) {
		t.Fatalf("a Sync of a ballot, an overwrite and 64 accepts did %q, want %q", f.Ops, want)
	}
	records := 0
	if err := l.Replay(func(wal.Record) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}
	// The first Sync: promise and three slots; the second: promise,
	// truncate to slot 1, slot 2 again and the 64 past it.
	if want := 1 + 3 + 1 + 1 + 1 + 64; records != want {
		t.Fatalf("journal holds %d records, want %d", records, want)
	}
}

// A crash at any step of a Multi-Paxos snapshotting Sync leaves a
// journal that restores: the promise of the last completed Sync still
// binds, and every slot that Sync held is accepted or in the snapshot.
func TestMultiPaxosSnapshotSyncCrashMatrix(t *testing.T) {
	for k := 0; ; k++ {
		dir := t.TempDir()
		f := &wal.Faults{}
		l, err := wal.OpenFaulty(dir, wal.Options{}, f)
		if err != nil {
			t.Fatal(err)
		}
		p := replog.NewPersister(l)
		n := acceptedAndCommitted()
		if err := p.Sync(n); err != nil {
			t.Fatal(err)
		}
		if !n.Compact(3, []byte("state@3")) {
			t.Fatal("compact")
		}
		f.CrashAfter(k)
		syncErr := p.Sync(n)
		l.Close()

		promised, got := acceptorState(restoreAcceptor(t, dir))
		if promised != ballot1 {
			t.Fatalf("crash after %d operations (%q): restored promise %v, want %v", k, f.Ops, promised, ballot1)
		}
		want := []string{"1:1.0:e1", "2:1.0:e2", "3:1.0:e3", "4:1.0:e4", "5:1.0:e5"}
		if len(got) > 0 && got[0] == "snap" {
			copy(want, []string{"snap", "snap", "snap"})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("crash after %d operations (%q): restored %q, want %q", k, f.Ops, got, want)
		}
		if syncErr == nil {
			if k < 10 {
				t.Fatalf("a snapshotting Sync took only %d operations", k)
			}
			return
		}
	}
}

func openFaulty(t *testing.T) (*wal.Log, *wal.Faults) {
	t.Helper()
	f := &wal.Faults{}
	l, err := wal.OpenFaulty(t.TempDir(), wal.Options{}, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Type: 1, Payload: []byte("before")}); err != nil {
		t.Fatal(err)
	}
	return l, f
}

// checkSticky asserts that l, failed with first, writes nothing more and
// answers every later call with that same error.
func checkSticky(t *testing.T, l *wal.Log, f *wal.Faults, first error, cause error) {
	t.Helper()
	if !errors.Is(first, cause) {
		t.Fatalf("failure reported as %v, want %v", first, cause)
	}
	writes := f.Count("write")
	if err := l.Append(wal.Record{Type: 1, Payload: []byte("after")}); err != first {
		t.Fatalf("Append after the failure: %v, want the first error %v", err, first)
	}
	if err := l.Snapshot(1, []byte("state")); err != first {
		t.Fatalf("Snapshot after the failure: %v, want the first error %v", err, first)
	}
	if got := f.Count("write"); got != writes {
		t.Fatalf("a failed log wrote %d more times", got-writes)
	}
	if err := l.Close(); err != first {
		t.Fatalf("Close after the failure: %v, want the first error %v", err, first)
	}
}

// After a short write the journal ends in a torn record: nothing may be
// appended behind it.
func TestShortWriteIsSticky(t *testing.T) {
	l, f := openFaulty(t)
	f.ShortNextWrite()
	err := l.Append(wal.Record{Type: 1, Payload: []byte("torn")})
	checkSticky(t, l, f, err, io.ErrShortWrite)
}

// After a failed fsync what the page cache holds is unknown: the log
// must not report a later write durable.
func TestFailedFsyncIsSticky(t *testing.T) {
	l, f := openFaulty(t)
	f.FailNextSync()
	err := l.Append(wal.Record{Type: 1, Payload: []byte("unsynced")})
	checkSticky(t, l, f, err, wal.ErrInjected)
}

// Cut the journal at every byte of one Sync's hard state + truncate +
// 64-entry batch: each cut restores to what a prefix of that batch
// makes of the state before it.
func TestTornBatchRestoresAPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p := replog.NewPersister(l)
	n := raft.New(1, raft.Config{Peers: peers, Seed: 3})
	step(n, raft.Message{Kind: raft.MsgAppend, From: 0, Term: 2, Entries: entries(2, "a", "b", "c")})
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "000001.wal")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	step(n, overwrite64)
	if err := p.Sync(n); err != nil {
		t.Fatal(err)
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The states a prefix of the batch's records makes: hard state, then
	// the truncation to index 1, then one entry at a time.
	type state struct {
		term raft.Term
		log  string
	}
	old := []string{"2:a", "2:b", "2:c"}
	prefixes := []state{{2, fmt.Sprint(old)}, {3, fmt.Sprint(old)}}
	for j := 0; j <= 64; j++ {
		log := []string{"2:a"}
		for _, v := range vals64[:j] {
			log = append(log, "3:"+v)
		}
		prefixes = append(prefixes, state{3, fmt.Sprint(log)})
	}
	last := 0
	for cut := len(before); cut <= len(full); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "000001.wal"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := restore(t, cdir)
		s := state{term(got), fmt.Sprint(values(got))}
		i := last
		for i < len(prefixes) && prefixes[i] != s {
			i++
		}
		if i == len(prefixes) {
			t.Fatalf("cut at byte %d of %d restored term %d log %s: not a prefix of the batch after %+v", cut, len(full), s.term, s.log, prefixes[last])
		}
		last = i
	}
	if last != len(prefixes)-1 {
		t.Fatalf("the whole batch restored to %+v", prefixes[last])
	}
}
