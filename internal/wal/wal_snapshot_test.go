package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSnapshotTypedRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Snapshot(7, []byte("typed payload")); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := l.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if kind != 7 || !bytes.Equal(payload, []byte("typed payload")) {
		t.Fatalf("got kind=%d payload=%q", kind, payload)
	}
}

func TestSnapshotEmptyPayload(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Snapshot(0, nil); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := l.LoadSnapshot()
	if err != nil || kind != 0 || payload != nil {
		t.Fatalf("got kind=%d payload=%v err=%v", kind, payload, err)
	}
}

// Every truncation of a snapshot file must load as an explicit error,
// never a partial payload — the live codec standard applied to the
// durable snapshot record.
func TestSnapshotTruncationFuzz(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(3, []byte("state-machine-bytes-for-truncation")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, "snapshot")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func() *Log {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		l := reopen()
		if _, _, err := l.LoadSnapshot(); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded without error", n, len(full))
		}
		l.Close()
	}
	// Trailing garbage and bit flips fail too.
	if err := os.WriteFile(path, append(append([]byte(nil), full...), 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	l = reopen()
	if _, _, err := l.LoadSnapshot(); err == nil {
		t.Fatal("trailing garbage loaded without error")
	}
	l.Close()
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l := reopen()
		if _, _, err := l.LoadSnapshot(); err == nil {
			t.Fatalf("bit flip at byte %d loaded without error", i)
		}
		l.Close()
	}
}

func TestSnapshotUnknownVersion(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A pre-header raw snapshot file (legacy or foreign) must be refused
	// with the explicit unknown-format error, not returned as payload.
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), []byte("raw legacy bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.LoadSnapshot(); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("legacy file: got %v, want ErrSnapshotVersion", err)
	}
	// Right magic, future version byte.
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), []byte("WSN9xxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.LoadSnapshot(); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version: got %v, want ErrSnapshotVersion", err)
	}
}

func TestAppendRejectsReservedTypes(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Type: TypeReservedBase}); !errors.Is(err, ErrReservedType) {
		t.Fatalf("type 0xF0: got %v", err)
	}
	if err := l.Append(Record{Type: 0xFF, Payload: []byte("x")}); !errors.Is(err, ErrReservedType) {
		t.Fatalf("type 0xFF: got %v", err)
	}
	if err := l.Append(Record{Type: TypeReservedBase - 1}); err != nil {
		t.Fatalf("highest caller type rejected: %v", err)
	}
}

func TestReplayRejectsReservedTypes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: 1, Payload: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Hand-craft a reserved-type record (as a future wal version would
	// write) and append it to the journal.
	f, err := os.OpenFile(filepath.Join(dir, "000001.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// frame: u32 len | type | payload | crc
	body := []byte{TypeReservedBase, 'z'}
	frame := []byte{0, 0, 0, 2}
	frame = append(frame, body...)
	crc := checksumForTest(body)
	frame = append(frame, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.Replay(func(Record) error { return nil })
	if !errors.Is(err, ErrReservedType) {
		t.Fatalf("replay: got %v, want ErrReservedType", err)
	}
}
