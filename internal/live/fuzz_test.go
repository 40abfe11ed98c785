package live

import (
	"bytes"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/raft"
)

// Native fuzz targets for every decoder in this package that takes
// bytes from a socket. Each asserts the repository's codec rule: no
// panic, and a decode without error re-encodes to exactly the input —
// one value, one encoding. Seeds are the round-trip tests' corpora;
// `make fuzz` runs each target for a few seconds.

func fuzzCodec[M any](f *testing.F, c Codec[M], seeds []M) {
	for _, m := range seeds {
		f.Add(c.Append(nil, m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := c.Decode(b); err == nil && !bytes.Equal(c.Append(nil, m), b) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x", b, m, c.Append(nil, m))
		}
	})
}

func FuzzRaftCodec(f *testing.F) { fuzzCodec[raft.Message](f, RaftCodec{}, raftMessages()) }

func FuzzMultiPaxosCodec(f *testing.F) {
	fuzzCodec[multipaxos.Message](f, MultiPaxosCodec{}, paxosMessages())
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add(Request{ReqID: 1, Client: 7, SeqNo: 3, Op: kvstore.Put("k", []byte("v")).Encode()}.encode())
	f.Add(Request{Op: AdminAddNodeOp(4, "127.0.0.1:9")}.encode())
	f.Add(Request{}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		if q, err := decodeRequest(b); err == nil && !bytes.Equal(q.encode(), b) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x", b, q, q.encode())
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(Response{ReqID: 1, Status: StatusOK, Leader: 2, Result: []byte("OK")}.appendTo(nil))
	f.Add(Response{ReqID: 9, Status: StatusNotLeader, Leader: -1}.appendTo(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := decodeResponse(b); err == nil && !bytes.Equal(p.appendTo(nil), b) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x", b, p, p.appendTo(nil))
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(helloPeer, 7))
	f.Add(encodeHello(helloClient, -1))
	f.Fuzz(func(t *testing.T, b []byte) {
		if role, id, err := decodeHello(b); err == nil && !bytes.Equal(encodeHello(role, id), b) {
			t.Fatalf("%x decoded to (%x, %d), which re-encodes to %x", b, role, id, encodeHello(role, id))
		}
	})
}
