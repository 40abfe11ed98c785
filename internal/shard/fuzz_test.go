package shard

import (
	"bytes"
	"testing"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/kvstore"
)

// Fuzz targets for the two decoders that take outside bytes: no panic,
// and whatever decodes without error re-encodes to exactly the input.

func FuzzDecodeCmd(f *testing.F) {
	ops := []kvstore.Command{kvstore.Put("x", []byte("y")), kvstore.Delete("z")}
	for _, c := range []Cmd{Apply(1, ops), Prepare(2, ops[:1]), Prepare(3, nil), Commit(4), Abort(5), Decide(6, commit.Committed)} {
		f.Add([]byte(c.Encode()))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if c, err := DecodeCmd(b); err == nil && !bytes.Equal(c.Encode(), b) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x", b, c, c.Encode())
		}
	})
}

func FuzzStoreRestore(f *testing.F) {
	s := NewStore()
	f.Add(s.Snapshot())
	s.Apply(kvstore.Put("base", []byte("v0")).Encode())
	s.Apply(Prepare(11, []kvstore.Command{kvstore.Put("acct", []byte("50")), kvstore.Delete("zed")}).Encode())
	s.Apply(Prepare(12, []kvstore.Command{kvstore.Put("acct", []byte("999"))}).Encode())
	s.Apply(Decide(13, commit.Committed).Encode())
	f.Add(s.Snapshot())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewStore()
		if err := r.Restore(b); err == nil && !bytes.Equal(r.Snapshot(), b) {
			t.Fatalf("%x restored, but snapshots as %x", b, r.Snapshot())
		}
	})
}
