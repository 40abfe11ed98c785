package wal

import (
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func checksumForTest(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Snapshot is snapshot with the new journal given as records, for the
// tests that write a snapshot file without a Journal.
func (l *Log) Snapshot(kind uint8, payload []byte, journal ...Record) error {
	if l.err != nil {
		return l.err
	}
	jb, err := frame(l.buf[:0], journal)
	if err != nil {
		return err
	}
	l.buf = jb
	return l.snapshot(kind, payload, jb)
}

// ErrInjected is the error every operation a Faults injects returns.
var ErrInjected = errors.New("injected fault")

// Faults is a filesystem for a Log that writes through to the real disk,
// logs every operation it performs ("write snapshot.tmp", "sync .", ...)
// and fails the ones a test asks it to.
type Faults struct {
	Ops []string

	dir        string
	crashAt    int // with crashing, every operation past this many fails
	crashing   bool
	shortWrite bool
	failSync   bool
}

// OpenFaulty opens the log in dir writing through f. Ops name files
// relative to dir, and dir itself ".".
func OpenFaulty(dir string, opt Options, f *Faults) (*Log, error) {
	f.dir = dir
	return open(dir, opt, f)
}

// CrashAfter lets k more operations through and fails every one after
// them, as a crash would stop them from reaching the disk.
func (f *Faults) CrashAfter(k int) { f.crashAt, f.crashing = len(f.Ops)+k, true }

// ShortNextWrite makes the next write store half its bytes and fail.
func (f *Faults) ShortNextWrite() { f.shortWrite = true }

// FailNextSync makes the next fsync fail.
func (f *Faults) FailNextSync() { f.failSync = true }

// Count reports how many logged operations are op ("write", "sync", ...).
func (f *Faults) Count(op string) int {
	n := 0
	for _, o := range f.Ops {
		if strings.HasPrefix(o, op+" ") {
			n++
		}
	}
	return n
}

// do logs one operation and reports whether a crash stops it.
func (f *Faults) do(op string, paths ...string) error {
	for _, p := range paths {
		rel, err := filepath.Rel(f.dir, p)
		if err != nil {
			rel = p
		}
		op += " " + rel
	}
	f.Ops = append(f.Ops, op)
	if f.crashing && len(f.Ops) > f.crashAt {
		return ErrInjected
	}
	return nil
}

func (f *Faults) open(name string, flag int) (*os.File, error) {
	if err := f.do("open", name); err != nil {
		return nil, err
	}
	return osFS{}.open(name, flag)
}

func (f *Faults) write(file *os.File, b []byte) (int, error) {
	if err := f.do("write", file.Name()); err != nil {
		return 0, err
	}
	if f.shortWrite {
		f.shortWrite = false
		n, err := file.Write(b[:len(b)/2])
		if err == nil {
			err = io.ErrShortWrite
		}
		return n, err
	}
	return file.Write(b)
}

func (f *Faults) sync(file *os.File) error {
	if err := f.do("sync", file.Name()); err != nil {
		return err
	}
	if f.failSync {
		f.failSync = false
		return ErrInjected
	}
	return file.Sync()
}

func (f *Faults) truncate(file *os.File, size int64) error {
	if err := f.do("truncate", file.Name()); err != nil {
		return err
	}
	return file.Truncate(size)
}

func (f *Faults) rename(from, to string) error {
	if err := f.do("rename", from, to); err != nil {
		return err
	}
	return os.Rename(from, to)
}

// close always closes: a crash closes every file anyway, and the test's
// directory must be left as the crash left it.
func (f *Faults) close(file *os.File) error {
	err := f.do("close", file.Name())
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}
