package smr

import (
	"bytes"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// Fuzz targets for the decoders that take outside bytes: no panic, and
// whatever decodes without error re-encodes to exactly the input.

func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(EncodeRequest(types.Request{Client: 7, SeqNo: 1, Op: kvstore.Put("k", []byte("v")).Encode()})))
	f.Add([]byte(EncodeRequest(types.Request{})))
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, err := DecodeRequest(b); err == nil && !bytes.Equal(EncodeRequest(r), b) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x", b, r, EncodeRequest(r))
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(EncodeBatch([]types.Request{
		{Client: 7, SeqNo: 1, Op: kvstore.Put("k", []byte("v")).Encode()},
		{Client: 8, SeqNo: 3, Op: kvstore.Incr("n", 2).Encode()},
	})))
	f.Add([]byte(EncodeBatch([]types.Request{{}, {Client: 1}})))
	f.Fuzz(func(t *testing.T, b []byte) {
		reqs, err := DecodeBatch(b, nil)
		if err == nil && !bytes.Equal(EncodeBatch(reqs), b) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x", b, reqs, EncodeBatch(reqs))
		}
		if err != nil && len(reqs) != 0 {
			t.Fatalf("%x failed to decode (%v) and still yielded %d requests", b, err, len(reqs))
		}
	})
}

func FuzzRestoreState(f *testing.F) {
	e := NewExecutor(0, kvstore.New())
	f.Add(e.SnapshotState())
	commitReq(e, 1, 3, 1, kvstore.Put("key", []byte("value")))
	commitReq(e, 2, 5, 1, kvstore.Get("missing"))
	commitReq(e, 3, 3, 2, kvstore.Incr("n", 4))
	f.Add(e.SnapshotState())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewExecutor(1, kvstore.New())
		if err := r.RestoreState(b); err == nil && !bytes.Equal(r.SnapshotState(), b) {
			t.Fatalf("%x restored, but snapshots as %x", b, r.SnapshotState())
		}
	})
}
