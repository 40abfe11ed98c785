package wal

import (
	"fmt"
	"testing"
)

// BenchmarkAppend measures journaling throughput with and without
// per-record fsync — the durability ablation.
func BenchmarkAppend(b *testing.B) {
	for _, sync := range []bool{false, true} {
		b.Run(fmt.Sprintf("sync=%v", sync), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{NoSync: !sync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, 128)
			b.SetBytes(int64(len(payload)) + 4 + 1 + 4) // length, type, checksum
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(Record{Type: 1, Payload: payload}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplay measures recovery speed over a populated journal.
func BenchmarkReplay(b *testing.B) {
	l, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 128)
	const records = 10000
	for i := 0; i < records; i++ {
		l.Append(Record{Type: 1, Payload: payload})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Replay(func(Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d", n)
		}
	}
}
