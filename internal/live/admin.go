package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// Cluster administration rides the client wire protocol: admin requests
// are ordinary Requests whose Op payload starts with a reserved op code
// above the kvstore range (0xA0..0xAF). They are answered by the node
// that receives them — status reads local replication state, membership
// ops submit a config change through consensus on whichever contacted
// node currently leads — so an admin client broadcasts to every node it
// knows and polls status until the committed member set reflects the
// change.

// Admin op codes (first byte of Request.Op).
const (
	// OpAdminStatus returns the node's NodeStatus as JSON.
	OpAdminStatus uint8 = 0xA0 + iota
	// OpAdminAddNode teaches the node a joiner's address and, if this
	// node leads a shard group, submits the ConfAdd through it.
	OpAdminAddNode
	// OpAdminRemoveNode submits a ConfRemove on every group this node
	// leads.
	OpAdminRemoveNode

	opAdminMax = OpAdminRemoveNode
)

// GroupStatus is one shard group's replication state as seen by one
// node, for consensus-admin and membership smoke checks.
type GroupStatus struct {
	Shard     int     `json:"shard"`
	IsLeader  bool    `json:"is_leader"`
	Leader    int64   `json:"leader"`      // believed leader; -1 unknown
	Commit    uint64  `json:"commit"`      // applied frontier (log slots)
	Ops       uint64  `json:"ops_applied"` // client requests applied here, a batch's one each (smr.Executor.OpsApplied)
	SnapIndex uint64  `json:"snap_index"`
	Installs  int     `json:"installs"`   // snapshots installed from peers
	Sessions  int     `json:"sessions"`   // executor dedup entries, one per client session seen
	Waiting   int     `json:"waiting"`    // session-table entries: requests taken here, not yet answered
	SnapBytes int     `json:"snap_bytes"` // last snapshot taken or installed: sessions + store
	Members   []int64 `json:"members"`    // current config (sorted)
	Digest    string  `json:"digest"`     // FNV-64 of the committed KV state
	// LeaderChanges counts the times this node's believed leader turned
	// to a known node: the boot election is the first.
	LeaderChanges int `json:"leader_changes"`
	// LeaderlessMs is the last stretch, in milliseconds, in which this
	// node named no leader: at boot it runs from the group's start, and
	// while no leader is named it is the stretch so far. It leaves out
	// the failure detection wait, while the node still names a leader
	// that died: that ends when a candidate's ballot or term reaches it.
	LeaderlessMs float64 `json:"leaderless_ms"`
	// RestoreFailed: a snapshot installed from a peer did not restore;
	// the replica applies nothing past it and refuses client requests.
	RestoreFailed bool `json:"restore_failed"`
}

// NodeStatus is one node's full admin status.
type NodeStatus struct {
	Node   int64         `json:"node"`
	Groups []GroupStatus `json:"groups"`
}

// AdminStatusOp encodes an OpAdminStatus payload.
func AdminStatusOp() []byte { return []byte{OpAdminStatus} }

// AdminAddNodeOp encodes an OpAdminAddNode payload for id at addr.
func AdminAddNodeOp(id types.NodeID, addr string) []byte {
	b := appendU8(nil, OpAdminAddNode)
	b = appendI64(b, int64(id))
	return wire.AppendBytes32(b, addr)
}

// AdminRemoveNodeOp encodes an OpAdminRemoveNode payload for id.
func AdminRemoveNodeOp(id types.NodeID) []byte {
	b := appendU8(nil, OpAdminRemoveNode)
	return appendI64(b, int64(id))
}

// AdminConfResult reports a membership submission: how many of the
// node's shard groups it led (and therefore submitted through).
type AdminConfResult struct {
	Node      int64 `json:"node"`
	Submitted int   `json:"submitted"`
	Groups    int   `json:"groups"`
}

// AddPeer teaches the server's transport a late-joining node's address.
// Module membership is governed by committed config entries, not by
// this map — AddPeer only makes the joiner reachable.
func (s *Server) AddPeer(id types.NodeID, addr string) { s.peers.AddPeer(id, addr) }

// handleAdmin answers one admin request on the connection's goroutine.
func (s *Server) handleAdmin(rc replier, req Request) {
	bad := func(why string) { s.refuse(rc, req, why) }
	r := wire.NewReader(req.Op)
	switch r.U8() {
	case OpAdminStatus:
		if !r.Done() {
			bad("malformed status request")
			return
		}
		st := NodeStatus{Node: int64(s.cfg.Self)}
		for _, g := range s.grs {
			gs, ok := g.status()
			if !ok {
				s.respond(rc, Response{ReqID: req.ReqID, Status: StatusUnavailable, Leader: -1})
				return
			}
			st.Groups = append(st.Groups, gs)
		}
		buf, err := json.Marshal(st)
		if err != nil {
			bad(fmt.Sprintf("status encoding: %v", err))
			return
		}
		s.respond(rc, Response{ReqID: req.ReqID, Status: StatusOK, Leader: int64(s.cfg.Self), Result: buf})
	case OpAdminAddNode:
		id := types.NodeID(r.I64())
		addr := string(r.View32())
		if !r.Done() || addr == "" {
			bad("malformed add-node request")
			return
		}
		s.AddPeer(id, addr)
		s.answerConf(rc, req, snapshot.ConfChange{Op: snapshot.ConfAdd, Node: id})
	case OpAdminRemoveNode:
		id := types.NodeID(r.I64())
		if !r.Done() {
			bad("malformed remove-node request")
			return
		}
		s.answerConf(rc, req, snapshot.ConfChange{Op: snapshot.ConfRemove, Node: id})
	default:
		bad("unknown admin op")
	}
}

// answerConf submits cc through every shard group this node leads and
// reports the count; zero submissions with live groups is still OK —
// the admin client broadcasts, and some other node leads.
func (s *Server) answerConf(rc replier, req Request, cc snapshot.ConfChange) {
	res := AdminConfResult{Node: int64(s.cfg.Self), Groups: len(s.grs)}
	for _, g := range s.grs {
		if g.submitConf(cc) {
			res.Submitted++
		}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		s.respond(rc, Response{ReqID: req.ReqID, Status: StatusBadRequest, Leader: -1, Result: types.Value(err.Error())})
		return
	}
	s.respond(rc, Response{ReqID: req.ReqID, Status: StatusOK, Leader: int64(s.cfg.Self), Result: buf})
}

// kvDigest fingerprints a store's KV snapshot, skipping the 8-byte
// applied counter (leader no-ops inflate it differently per node; the
// KV contents are what replicas must agree on).
func kvDigest(snap []byte) string {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	if len(snap) > 8 {
		snap = snap[8:]
	}
	for _, b := range snap {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return fmt.Sprintf("%016x", h)
}

// AdminCall dials addr as a client, performs one admin request, and
// returns the decoded response. It is the consensus-admin CLI's (and
// the membership tests') entire client side.
func AdminCall(addr string, op []byte, timeout time.Duration) (Response, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return Response{}, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return Response{}, err
	}
	bw := bufio.NewWriter(conn)
	if err := WriteFrame(bw, encodeHello(helloClient, 0)); err != nil {
		return Response{}, err
	}
	req := Request{ReqID: 1, SeqNo: 1, Op: op}
	if err := WriteFrame(bw, req.encode()); err != nil {
		return Response{}, err
	}
	if err := bw.Flush(); err != nil {
		return Response{}, err
	}
	payload, err := ReadFrame(bufio.NewReader(conn), DefaultMaxFrame)
	if err != nil {
		return Response{}, err
	}
	return decodeResponse(payload)
}
