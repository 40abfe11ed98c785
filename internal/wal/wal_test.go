package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T, opt Options) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(func(r Record) error {
		recs = append(recs, Record{Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, _ := openTemp(t, Options{})
	defer l.Close()
	want := []Record{
		{Type: 1, Payload: []byte("accepted ballot 3.1")},
		{Type: 2, Payload: []byte("value slot 7")},
		{Type: 1, Payload: nil},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReplaySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(Record{Type: 5, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 10 {
		t.Fatalf("replay after reopen got %d records", len(got))
	}
	// Appends continue where the log left off.
	if err := l2.Append(Record{Type: 6, Payload: []byte("more")}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); len(got) != 11 {
		t.Fatalf("post-reopen append lost: %d records", len(got))
	}
}

func TestTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{Type: 1, Payload: []byte("entry")}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a torn write: truncate the last few bytes of the segment.
	path := filepath.Join(dir, "000001.wal")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 4 {
		t.Fatalf("replay after torn tail got %d records, want 4", len(got))
	}
}

// A node restarted over a torn tail journals where the next replay will
// read: Open cuts the torn record off before the first append.
func TestAppendAfterTornTailSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{Type: 1, Payload: []byte("entry")}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, "000001.wal")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(Record{Type: 2, Payload: []byte("after restart")}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	got := collect(t, l3)
	if len(got) != 5 || got[4].Type != 2 || string(got[4].Payload) != "after restart" {
		t.Fatalf("replay after a restart over a torn tail got %d records %+v, want the 4 intact ones and the new one", len(got), got)
	}
}

// A directory holding a journal file besides 000001.wal — a segment an
// older version rotated to — is refused, not half replayed.
func TestOpenRejectsSecondJournal(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"000001.wal", "000002.wal"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if l, err := Open(dir, Options{}); err == nil {
		l.Close()
		t.Fatal("Open ignored a second journal file")
	}
}

func TestCorruptTailChecksum(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Type: 1, Payload: []byte("aaaa")})
	l.Append(Record{Type: 1, Payload: []byte("bbbb")})
	l.Close()
	path := filepath.Join(dir, "000001.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xFF // flip a payload byte of the final record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 1 {
		t.Fatalf("replay kept %d records past corruption, want 1", len(got))
	}
}

func TestSnapshotPrunesAndReplays(t *testing.T) {
	l, _ := openTemp(t, Options{})
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: 1, Payload: bytes.Repeat([]byte("y"), 40)})
	}
	if err := l.Snapshot(0, []byte("state@10"), Record{Type: 3, Payload: []byte("kept")}); err != nil {
		t.Fatal(err)
	}
	_, snap, err := l.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "state@10" {
		t.Fatalf("snapshot = %q", snap)
	}
	if got := collect(t, l); len(got) != 1 || string(got[0].Payload) != "kept" {
		t.Fatalf("replay after snapshot got %+v, want only the record it journaled", got)
	}
	// New appends after snapshot replay normally.
	l.Append(Record{Type: 2, Payload: []byte("post")})
	if got := collect(t, l); len(got) != 2 {
		t.Fatalf("post-snapshot append lost")
	}
}

func TestLoadSnapshotMissing(t *testing.T) {
	l, _ := openTemp(t, Options{})
	defer l.Close()
	_, snap, err := l.LoadSnapshot()
	if err != nil || snap != nil {
		t.Fatalf("missing snapshot: %v, %v", snap, err)
	}
}

func TestClosedLogRejects(t *testing.T) {
	l, _ := openTemp(t, Options{})
	l.Close()
	if err := l.Append(Record{Type: 1}); err != ErrClosed {
		t.Fatalf("append on closed log: %v", err)
	}
	if err := l.Snapshot(0, nil); err != ErrClosed {
		t.Fatalf("snapshot on closed log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		dir, err := os.MkdirTemp("", "walprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			return false
		}
		defer l.Close()
		for i, p := range payloads {
			if err := l.Append(Record{Type: uint8(i % 7), Payload: p}); err != nil {
				return false
			}
		}
		i := 0
		err = l.Replay(func(r Record) error {
			if r.Type != uint8(i%7) || !bytes.Equal(r.Payload, payloads[i]) {
				return ErrCorrupt
			}
			i++
			return nil
		})
		return err == nil && i == len(payloads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReplay: Open and Replay of any journal never panic, and a clean
// replay hands over exactly the intact prefix of the file — re-framing
// the records rebuilds it — which is all Open leaves of the file.
func FuzzReplay(f *testing.F) {
	seed, _ := frame(nil, []Record{
		{Type: 1, Payload: []byte("accepted ballot 3.1")},
		{Type: 2, Payload: []byte("value slot 7")},
		{Type: 1},
	})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "000001.wal")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var recs []Record
		if l.Replay(func(r Record) error { recs = append(recs, r); return nil }) != nil {
			return // corrupt before its tail: an error, not records
		}
		reframed, err := frame(nil, recs)
		if err != nil {
			t.Fatal(err)
		}
		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, reframed) || !bytes.Equal(left, reframed) {
			t.Fatalf("replayed %d records re-framing to %x; input %x, file after Open %x", len(recs), reframed, b, left)
		}
	})
}
