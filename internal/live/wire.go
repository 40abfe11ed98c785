package live

import (
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// Client request/response wire format. Requests carry the client's own
// session identity (client ID + sequence number): the smr executor's
// dedup cache is keyed on it, so a retry of the same request — to the
// same node or a different one — executes at most once cluster-wide.

// Frame tags for client traffic (peer frames carry no tag; their
// connection role was declared by the hello).
const (
	tagRequest  = 0x51 // 'Q'
	tagResponse = 0x52 // 'R'
)

// Response statuses.
const (
	// StatusOK carries the committed operation's result.
	StatusOK = uint8(iota)
	// StatusNotLeader rejects a submission on a non-leader; Leader
	// carries a hint (-1 when the node knows no leader).
	StatusNotLeader
	// StatusBadRequest rejects a request the server could not parse.
	StatusBadRequest
	// StatusUnavailable rejects a request during shutdown.
	StatusUnavailable
)

// Request is one client operation as it crosses the wire.
type Request struct {
	ReqID  uint64 // per-connection-attempt match token, chosen by the client
	Client types.ClientID
	SeqNo  uint64
	Op     types.Value // encoded kvstore command
}

func (q Request) encode() []byte {
	b := make([]byte, 0, 1+8+8+8+4+len(q.Op))
	b = appendU8(b, tagRequest)
	b = appendU64(b, q.ReqID)
	b = appendI64(b, int64(q.Client))
	b = appendU64(b, q.SeqNo)
	b = wire.AppendBytes32(b, q.Op)
	return b
}

func decodeRequest(b []byte) (Request, error) {
	r := wire.NewReader(b)
	var q Request
	if r.U8() != tagRequest {
		return Request{}, ErrCodec
	}
	q.ReqID = r.U64()
	q.Client = types.ClientID(r.I64())
	q.SeqNo = r.U64()
	q.Op = r.Copy32()
	if !r.Done() {
		return Request{}, ErrCodec
	}
	return q, nil
}

// Response answers one Request, matched by ReqID.
type Response struct {
	ReqID  uint64
	Status uint8
	Leader int64 // StatusNotLeader hint; -1 = unknown
	Result types.Value
}

// appendTo appends the response's encoding to b.
func (p Response) appendTo(b []byte) []byte {
	b = appendU8(b, tagResponse)
	b = appendU64(b, p.ReqID)
	b = appendU8(b, p.Status)
	b = appendI64(b, p.Leader)
	b = wire.AppendBytes32(b, p.Result)
	return b
}

func decodeResponse(b []byte) (Response, error) {
	r := wire.NewReader(b)
	var p Response
	if r.U8() != tagResponse {
		return Response{}, ErrCodec
	}
	p.ReqID = r.U64()
	p.Status = r.U8()
	p.Leader = r.I64()
	p.Result = r.Copy32()
	if !r.Done() {
		return Response{}, ErrCodec
	}
	return p, nil
}
