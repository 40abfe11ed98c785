// Package wal implements the durable write-ahead log replicas use to
// survive crash-restart: one journal file of length-prefixed,
// CRC-32C-checked records, beside an optional snapshot file that
// replaces the journal whole. Consensus protocols here are in-memory
// state machines; durability is layered on by journaling their events
// (accepted ballots, log entries, votes) and replaying them on restart.
//
// Group commit: one Append is one write and one fsync, however many
// records it carries. Crash order: a snapshot makes the snapshot file
// durable (tmp file, fsync, rename, directory fsync) before it replaces
// the journal the same way, so a crash leaves the old or the new
// snapshot, the latter possibly beside the old journal; replay must
// skip journaled state the snapshot already covers. The first failed
// write, fsync, truncate or rename poisons the Log — what reached the
// disk is unknown — and every later Append, snapshot and Close returns it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Record is one journaled event: a caller-defined type tag plus payload.
type Record struct {
	Type    uint8
	Payload []byte
}

var (
	// ErrCorrupt reports a record whose checksum or framing is invalid.
	// Replay stops at the first corrupt record, treating the tail as an
	// interrupted write — the standard WAL torn-write rule.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("wal: closed")
	// ErrReservedType reports a record type in the wal-reserved range
	// [TypeReservedBase, 0xFF]. Appending one is a caller bug; replaying
	// one means the journal was written by a future wal version whose
	// internal records this version cannot interpret, so recovery must
	// stop loudly rather than misread them.
	ErrReservedType = errors.New("wal: reserved record type")
	// ErrSnapshotVersion reports a snapshot file whose header magic or
	// version byte is unknown to this wal version.
	ErrSnapshotVersion = errors.New("wal: unknown snapshot format")
)

// TypeReservedBase is the first record type reserved for wal-internal
// use (snapshot markers and future framing changes). Callers own types
// below it.
const TypeReservedBase uint8 = 0xF0

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	journalName  = "000001.wal"
	snapshotName = "snapshot"
)

// Options tunes a Log. The zero value is usable.
type Options struct {
	// NoSync skips every fsync (for benchmarks that measure protocol
	// cost rather than disk cost).
	NoSync bool
}

// fsys is every call through which a Log changes the disk; osFS is the
// real one, and tests substitute one that fails or stops partway.
type fsys interface {
	open(name string, flag int) (*os.File, error)
	write(f *os.File, b []byte) (int, error)
	sync(f *os.File) error
	truncate(f *os.File, size int64) error
	rename(from, to string) error
	close(f *os.File) error
}

type osFS struct{}

func (osFS) open(name string, flag int) (*os.File, error) { return os.OpenFile(name, flag, 0o644) }
func (osFS) write(f *os.File, b []byte) (int, error)      { return f.Write(b) }
func (osFS) sync(f *os.File) error                        { return f.Sync() }
func (osFS) truncate(f *os.File, size int64) error        { return f.Truncate(size) }
func (osFS) rename(from, to string) error                 { return os.Rename(from, to) }
func (osFS) close(f *os.File) error                       { return f.Close() }

// Log is an append-only record journal stored as one file, 000001.wal,
// in a directory, beside an optional snapshot file.
type Log struct {
	dir    string
	fs     fsys
	noSync bool
	active *os.File
	buf    []byte // framing buffer, reused across calls
	err    error  // the first I/O failure, sticky; ErrClosed after Close
}

// Open opens (creating if needed) the log in dir. A torn tail — the
// remains of an append a crash cut short — is cut off, so that what this
// Log appends lands where the next Replay reads.
func Open(dir string, opt Options) (*Log, error) {
	return open(dir, opt, osFS{})
}

func open(dir string, opt Options, fs fsys) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	path := filepath.Join(dir, journalName)
	if js, _ := filepath.Glob(filepath.Join(dir, "*.wal")); len(js) > 1 || len(js) == 1 && js[0] != path {
		return nil, fmt.Errorf("wal: %s holds a journal other than %s", dir, journalName)
	}
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := fs.open(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, fs: fs, noSync: opt.NoSync, active: f}
	// A journal corrupt before its tail is left alone: Replay reports it.
	if end, err := scan(b, func(Record) error { return nil }); err == nil && end < len(b) {
		if l.check(fs.truncate(f, int64(end))) != nil || l.sync(f) != nil {
			fs.close(f)
			return nil, l.err
		}
	}
	return l, nil
}

// check records err as the log's sticky error if it is the first, and
// returns the sticky error.
func (l *Log) check(err error) error {
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
	}
	return l.err
}

func (l *Log) sync(f *os.File) error {
	if l.noSync {
		return nil
	}
	return l.check(l.fs.sync(f))
}

// write issues b as one write to f and makes it durable.
func (l *Log) write(f *os.File, b []byte) error {
	if _, err := l.fs.write(f, b); err != nil {
		return l.check(err)
	}
	return l.sync(f)
}

// Append journals recs with one write and one fsync. Record types at or
// above TypeReservedBase are rejected before anything is written.
func (l *Log) Append(recs ...Record) error {
	if l.err != nil {
		return l.err
	}
	buf, err := frame(l.buf[:0], recs)
	if err != nil {
		return err
	}
	l.buf = buf
	return l.append(buf)
}

// append writes framed records b with one write and one fsync.
func (l *Log) append(b []byte) error {
	if l.err != nil || len(b) == 0 {
		return l.err
	}
	return l.write(l.active, b)
}

// frame appends recs to buf.
func frame(buf []byte, recs []Record) ([]byte, error) {
	for _, r := range recs {
		if r.Type >= TypeReservedBase {
			return buf, fmt.Errorf("%w: %#x", ErrReservedType, r.Type)
		}
		buf = appendRecord(buf, r.Type, r.Payload)
	}
	return buf, nil
}

// appendRecord appends one record to buf, its payload the words, each a
// u64, then val: u32 length | u8 type | payload | u32 crc32c(type+payload).
func appendRecord(buf []byte, typ uint8, val []byte, words ...uint64) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+8*len(words)+len(val)))
	buf = append(buf, typ)
	for _, w := range words {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	buf = append(buf, val...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start+4:], crcTable))
}

// Replay streams every intact record (oldest first) to fn. A corrupt or
// torn tail record ends replay without error; any other corruption
// returns ErrCorrupt.
func (l *Log) Replay(fn func(Record) error) error {
	b, err := os.ReadFile(filepath.Join(l.dir, journalName))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = scan(b, fn)
	return err
}

// scan hands each intact record framed in b to fn and returns the
// offset just past the last one. A record cut short or failing its
// checksum ends the walk without error: it is the tail of an append a
// crash interrupted.
func scan(b []byte, fn func(Record) error) (int, error) {
	off := 0
	for len(b)-off >= 4 {
		n := int(binary.BigEndian.Uint32(b[off:]))
		if n == 0 || n > 64<<20 {
			return off, fmt.Errorf("%w: absurd record length %d", ErrCorrupt, n)
		}
		end := off + 4 + n + 4
		if end > len(b) {
			break
		}
		body := b[off+4 : off+4+n : off+4+n]
		if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(b[end-4:]) {
			break
		}
		if body[0] >= TypeReservedBase {
			return off, fmt.Errorf("%w: %#x in journal", ErrReservedType, body[0])
		}
		if err := fn(Record{Type: body[0], Payload: body[1:]}); err != nil {
			return off, err
		}
		off = end
	}
	return off, nil
}

// Snapshot-file header: "WSN" ver(u8='1') | u8 kind | u32 payload len |
// payload | u32 crc32c(header+payload). The kind byte tags what the
// payload encodes (caller-defined, e.g. a raft snapshot/v1 blob) so
// recovery can refuse payloads it does not understand instead of
// misreading them.
var snapMagic = [3]byte{'W', 'S', 'N'}

const (
	snapVersion   = '1'
	snapHeaderLen = 3 + 1 + 1 + 4
)

// snapshot replaces the log's snapshot with payload, tagged kind, then
// its journal with jb, the framed records that still apply on top of
// the snapshot. Each file is durable before the next step starts.
func (l *Log) snapshot(kind uint8, payload, jb []byte) error {
	if l.err != nil {
		return l.err
	}
	sb := make([]byte, 0, snapHeaderLen+len(payload)+4)
	sb = append(sb, snapMagic[:]...)
	sb = append(sb, snapVersion, kind)
	sb = binary.BigEndian.AppendUint32(sb, uint32(len(payload)))
	sb = append(sb, payload...)
	sb = binary.BigEndian.AppendUint32(sb, crc32.Checksum(sb, crcTable))
	if err := l.replace(snapshotName, sb); err != nil {
		return err
	}
	if err := l.replace(journalName, jb); err != nil {
		return err
	}
	f, err := l.fs.open(filepath.Join(l.dir, journalName), os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return l.check(err)
	}
	// The old journal is unlinked and superseded: its close error
	// changes nothing.
	_ = l.fs.close(l.active)
	l.active = f
	return nil
}

// replace makes b the durable content of the file name in the log's
// directory: tmp file, fsync, rename, and a directory fsync that makes
// the rename durable.
func (l *Log) replace(name string, b []byte) error {
	tmp := filepath.Join(l.dir, name+".tmp")
	f, err := l.fs.open(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return l.check(err)
	}
	l.write(f, b)
	l.check(l.fs.close(f)) // check keeps the first error
	if l.err != nil || l.check(l.fs.rename(tmp, filepath.Join(l.dir, name))) != nil {
		return l.err
	}
	d, err := l.fs.open(l.dir, os.O_RDONLY)
	if err != nil {
		return l.check(err)
	}
	defer l.fs.close(d)
	return l.sync(d)
}

// LoadSnapshot returns the snapshot's kind tag and payload, or
// (0, nil, nil) when no snapshot exists. A header with unknown magic or
// version yields ErrSnapshotVersion; any truncation or corruption of
// the file yields ErrCorrupt — never a partial payload.
func (l *Log) LoadSnapshot() (uint8, []byte, error) {
	b, err := os.ReadFile(filepath.Join(l.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	return decodeSnapshotFile(b)
}

func decodeSnapshotFile(b []byte) (uint8, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	if b[0] != snapMagic[0] || b[1] != snapMagic[1] || b[2] != snapMagic[2] {
		return 0, nil, ErrSnapshotVersion
	}
	if b[3] != snapVersion {
		return 0, nil, fmt.Errorf("%w: version %q", ErrSnapshotVersion, b[3])
	}
	if len(b) < snapHeaderLen {
		return 0, nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	kind := b[4]
	n := int(binary.BigEndian.Uint32(b[5:]))
	if n != len(b)-snapHeaderLen-4 {
		return 0, nil, fmt.Errorf("%w: snapshot length %d in %d-byte file", ErrCorrupt, n, len(b))
	}
	body := snapHeaderLen + n
	if crc32.Checksum(b[:body], crcTable) != binary.BigEndian.Uint32(b[body:]) {
		return 0, nil, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	var payload []byte
	if n > 0 {
		payload = append([]byte(nil), b[snapHeaderLen:body]...)
	}
	return kind, payload, nil
}

// Close flushes and closes the journal. After an I/O failure it returns
// that first error.
func (l *Log) Close() error {
	if l.err == ErrClosed {
		return nil
	}
	l.sync(l.active)
	err := l.check(l.fs.close(l.active))
	if err == nil {
		l.err = ErrClosed
	}
	return err
}
