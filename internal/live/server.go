package live

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// Backends the live runtime can host per shard group.
const (
	BackendRaft       = "raft"
	BackendMultiPaxos = "multipaxos"
)

// ServerConfig sizes one cluster node.
type ServerConfig struct {
	// Self is this node's ID; Addrs maps every node (including Self)
	// to its TCP address. Node i of every shard group lives on server i.
	Self  types.NodeID
	Addrs map[types.NodeID]string

	// Shards is the number of consensus groups (default 2); every
	// server hosts one replica of each.
	Shards int
	// Backend is raft or multipaxos (default raft).
	Backend string
	// TickEvery is the wall-clock length of one protocol tick
	// (default 2ms); protocol timeouts scale with it.
	TickEvery time.Duration
	// Seed seeds the modules' private RNGs (election jitter).
	Seed uint64
	// Join starts every hosted module passive: the node is a fresh
	// joiner that must not campaign until a leader contacts it. Pair
	// with consensus-admin add-node to vote it into the cluster; it
	// catches up through a snapshot transfer once admitted.
	Join bool
	// SnapshotEvery compacts each group's log every N applied slots,
	// folding the executor + store state into a snapshot (0 = never).
	// Lagging or joining peers below the compaction point are caught up
	// by snapshot transfer instead of entry replay.
	SnapshotEvery int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Shards < 1 {
		c.Shards = 2
	}
	if c.Backend == "" {
		c.Backend = BackendRaft
	}
	if c.TickEvery <= 0 {
		c.TickEvery = 2 * time.Millisecond
	}
	return c
}

// Server is one live cluster node: a transport, one hosted module per
// shard group (each behind its own live.Node lock), and the client
// request path routing operations to the owning group by key hash.
type Server struct {
	cfg ServerConfig
	pm  shard.PartitionMap
	tr  *Transport
	grs []hostedGroup
	met *ServerMetrics

	mu     sync.Mutex
	closed bool
	http   []*http.Server
}

// hostedGroup erases the message-type parameter so the server can mix
// backends behind one slice.
type hostedGroup interface {
	start()
	close()
	deliver(payload []byte)
	submit(cc *ClientConn, req Request, read bool)
	leaderInfo() (isLeader bool, leader types.NodeID, ok bool)
	inspect(fn func(st *shard.Store)) bool
	status() (GroupStatus, bool)
	submitConf(cc snapshot.ConfChange) bool
}

// NewServer builds a node and binds its listener.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	addr, ok := cfg.Addrs[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("live: no address for self %v", cfg.Self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	return NewServerOn(ln, cfg)
}

// NewServerOn is NewServer over a pre-bound listener (see Listen).
func NewServerOn(ln net.Listener, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("live: empty address map")
	}
	s := &Server{
		cfg: cfg,
		pm:  shard.NewPartitionMap(cfg.Shards),
		met: newServerMetrics(cfg.Shards),
	}
	s.tr = NewTransport(ln, TransportConfig{
		Self:        cfg.Self,
		Addrs:       cfg.Addrs,
		OnPeerFrame: s.onPeerFrame,
		OnClient:    s.serveClient,
	})
	peers := det.SortedKeys(cfg.Addrs)
	for i := 0; i < cfg.Shards; i++ {
		g, err := newGroup(s, i, peers)
		if err != nil {
			return nil, err
		}
		s.grs = append(s.grs, g)
	}
	return s, nil
}

// newGroup builds the hosted module for one shard group.
func newGroup(s *Server, idx int, peers []types.NodeID) (hostedGroup, error) {
	seed := shard.MixSeed(s.cfg.Seed, uint64(idx))
	switch s.cfg.Backend {
	case BackendRaft:
		mod := raft.New(s.cfg.Self, raft.Config{Peers: peers, Seed: seed, Passive: s.cfg.Join})
		return newSMRGroup[raft.Message](s, idx, mod, RaftCodec{}, raft.Dest), nil
	case BackendMultiPaxos:
		mod := multipaxos.New(s.cfg.Self, multipaxos.Config{Peers: peers, Seed: seed, Passive: s.cfg.Join})
		return newSMRGroup[multipaxos.Message](s, idx, mod, MultiPaxosCodec{}, multipaxos.Dest), nil
	default:
		return nil, fmt.Errorf("live: unknown backend %q", s.cfg.Backend)
	}
}

// Start launches the transport and every group's ticker.
func (s *Server) Start() {
	s.tr.Start()
	for _, g := range s.grs {
		g.start()
	}
}

// Addr returns the node's listening address.
func (s *Server) Addr() string { return s.tr.Addr() }

// Shards returns the shard-group count.
func (s *Server) Shards() int { return s.cfg.Shards }

// Metrics returns the server's live counters.
func (s *Server) Metrics() *ServerMetrics { return s.met }

// TransportStats snapshots the wire counters.
func (s *Server) TransportStats() TransportStats { return s.tr.Stats() }

// Leader reports shard sh's leadership as seen by this node:
// (thisNodeLeads, believedLeader). ok is false if the group has
// stopped or sh is out of range.
func (s *Server) Leader(sh int) (isLeader bool, leader types.NodeID, ok bool) {
	if sh < 0 || sh >= len(s.grs) {
		return false, -1, false
	}
	return s.grs[sh].leaderInfo()
}

// InspectStore runs fn against shard sh's state machine as one turn of
// the group's node — the legal way to read replicated state. fn must
// not block or call back into the server.
func (s *Server) InspectStore(sh int, fn func(st *shard.Store)) bool {
	if sh < 0 || sh >= len(s.grs) {
		return false
	}
	return s.grs[sh].inspect(fn)
}

// SnapshotKV returns shard sh's committed KV snapshot bytes.
func (s *Server) SnapshotKV(sh int) ([]byte, bool) {
	var snap []byte
	ok := s.InspectStore(sh, func(st *shard.Store) { snap = st.KV().Snapshot() })
	return snap, ok
}

// onPeerFrame routes one inter-node frame to its shard group, whose
// turn then runs on this goroutine (the peer connection's reader):
// payload = u32 group index | module message bytes.
func (s *Server) onPeerFrame(from types.NodeID, payload []byte) {
	r := wire.NewReader(payload)
	idx := r.U32()
	if r.Err() != nil || idx >= uint32(len(s.grs)) {
		s.met.peerDecodeErrors.Add(1)
		return
	}
	s.grs[idx].deliver(r.View(r.Len()))
}

// serveClient runs one client connection's request loop.
func (s *Server) serveClient(cc *ClientConn) {
	for {
		req, err := cc.ReadRequest()
		if err != nil {
			return
		}
		s.met.requests.Add(1)
		if len(req.Op) > 0 && req.Op[0] >= OpAdminStatus && req.Op[0] <= opAdminMax {
			s.handleAdmin(cc, req)
			continue
		}
		cmd, derr := kvstore.Decode(req.Op)
		if derr != nil || req.SeqNo == 0 {
			s.met.badReq.Add(1)
			s.respond(cc, Response{ReqID: req.ReqID, Status: StatusBadRequest, Leader: -1,
				Result: types.Value("undecodable command")})
			continue
		}
		g := s.grs[s.pm.Shard(cmd.Key)]
		g.submit(cc, req, cmd.Op == kvstore.OpGet)
	}
}

// respond queues a response on the client's connection, counting one the
// connection refused (its queue is full, or it has closed).
func (s *Server) respond(cc *ClientConn, resp Response) {
	if !cc.Send(resp) {
		s.met.replyDropped.Add(1)
	}
}

// Close shuts the node down: metrics endpoints, then the transport
// (no new requests, peer IO stops), then every group. Safe to call
// more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	https := s.http
	s.http = nil
	s.mu.Unlock()
	for _, h := range https {
		h.Close()
	}
	s.tr.Close()
	for _, g := range s.grs {
		g.close()
	}
}

// --- the generic hosted group ---

// SMRModule is the surface a hostable consensus module must offer:
// the runner contract plus submission, reads, leadership, and the
// decision stream. raft.Node and multipaxos.Node both satisfy it.
type SMRModule[M any] interface {
	Module[M]
	smr.Module
	smr.Reader
	Submit(types.Value)
	IsLeader() bool
	Leader() types.NodeID
	ReadStats() (probes, reasked int)
}

// sessKey identifies one client request for reply routing.
type sessKey struct {
	client types.ClientID
	seqno  uint64
}

// pendingReq is one accepted submission or read awaiting its answer.
type pendingReq struct {
	cc    *ClientConn
	reqID uint64
	start time.Time
	read  bool
}

// smrGroup is the live driver of smr.Replica for one shard group: the
// live.Node that serializes the module's turns, the wire codec, the
// Replica that moves committed decisions into shard.Store and compacts
// on cadence, and the pending-reply table. Everything below node is
// touched only inside a turn, under the node's lock.
type smrGroup[M any] struct {
	srv   *Server
	idx   int
	mod   SMRModule[M]
	codec Codec[M]
	dest  func(M) types.NodeID
	node  *Node[M]
	rep   *smr.Replica
	store *shard.Store

	// restoreFailed latches the first failed snapshot restore: the
	// replica applies nothing after it, so the group stops taking
	// client requests.
	restoreFailed bool

	pending map[sessKey]*pendingReq

	probes, reasked int // the module's read counters, as last added to srv.met

	enc []byte // frame's scratch, reused across sends
}

func newSMRGroup[M any](s *Server, idx int, mod SMRModule[M], codec Codec[M], dest func(M) types.NodeID) *smrGroup[M] {
	g := &smrGroup[M]{
		srv: s, idx: idx, mod: mod, codec: codec, dest: dest,
		store:   shard.NewStore(),
		pending: make(map[sessKey]*pendingReq),
	}
	g.rep = smr.NewReplica(s.cfg.Self, mod, g.store)
	g.node = NewNode[M](mod, s.cfg.Self, dest, g.send, g.afterTurn, NodeConfig{
		TickEvery: s.cfg.TickEvery,
	})
	return g
}

// send encodes one outbound module message and hands it to the
// transport, prefixed with the group index.
func (g *smrGroup[M]) send(m M) {
	g.srv.tr.Send(g.dest(m), g.frame(m))
}

// maxFrameScratch is the largest encoding buffer a group keeps between
// sends; a snapshot transfer's outgrows it and is let go.
const maxFrameScratch = 64 << 10

// frame encodes m behind the group index. The codec appends field by
// field into the group's scratch — sends are turns, so the node's lock
// serialises them — and the transport, which queues what it is handed,
// gets one copy of exactly the encoded size: one allocation per frame,
// whatever the codec's layout.
func (g *smrGroup[M]) frame(m M) []byte {
	g.enc = g.codec.Append(appendU32(g.enc[:0], uint32(g.idx)), m)
	out := make([]byte, len(g.enc))
	copy(out, g.enc)
	if cap(g.enc) > maxFrameScratch {
		g.enc = nil
	}
	return out
}

// deliver decodes one inbound module message and steps it through the
// module on the calling reader goroutine. Only a stopped group refuses
// it, and a message for a group that is shutting down needs no count.
func (g *smrGroup[M]) deliver(payload []byte) {
	m, err := g.codec.Decode(payload)
	if err != nil {
		g.srv.met.peerDecodeErrors.Add(1)
		return
	}
	g.node.Deliver(m)
}

// submit runs the leadership check and submission as one turn, on the
// client connection's goroutine; a read goes to smr.Replica.Read.
func (g *smrGroup[M]) submit(cc *ClientConn, req Request, read bool) {
	ok := g.node.CallWait(func() {
		if g.restoreFailed {
			g.srv.respond(cc, Response{ReqID: req.ReqID, Status: StatusUnavailable, Leader: -1})
			return
		}
		if !g.mod.IsLeader() {
			g.srv.met.notLeader.Add(1)
			g.srv.respond(cc, Response{ReqID: req.ReqID, Status: StatusNotLeader, Leader: int64(g.mod.Leader())})
			return
		}
		g.prunePending()
		g.pending[sessKey{req.Client, req.SeqNo}] = &pendingReq{
			cc: cc, reqID: req.ReqID, start: time.Now(), read: read,
		}
		if read {
			g.rep.Read(req.Client, req.SeqNo, req.Op)
			return
		}
		g.mod.Submit(smr.EncodeRequest(types.Request{
			Client: req.Client, SeqNo: req.SeqNo, Op: req.Op,
		}))
	})
	if !ok {
		g.srv.respond(cc, Response{ReqID: req.ReqID, Status: StatusUnavailable, Leader: -1})
	}
}

// prunePending bounds the reply table: entries whose client gave up
// (or whose submission lost leadership and never committed) age out.
func (g *smrGroup[M]) prunePending() {
	if len(g.pending) < 4096 {
		return
	}
	cutoff := time.Now().Add(-10 * time.Second)
	//lint:allow maporder expiry sweep; which stale entry dies first is unobservable
	for k, p := range g.pending {
		if p.start.Before(cutoff) {
			delete(g.pending, k)
		}
	}
}

// afterTurn ends every turn, under the node's lock: pump the replica,
// answer the clients whose requests it applied or whose reads it served,
// redirect those whose reads the module dropped, compact on cadence.
func (g *smrGroup[M]) afterTurn() {
	_, replies, dropped, err := g.rep.Pump()
	if err != nil {
		if !g.restoreFailed {
			g.restoreFailed = true
			g.srv.met.restoreFailed.Add(1)
		}
		return
	}
	met := g.srv.met
	for _, r := range replies {
		p, ok := g.pending[sessKey{r.Client, r.SeqNo}]
		if !ok || !p.read {
			met.applied.Add(1) // a log entry; a read is none
		}
		if !ok {
			continue
		}
		delete(g.pending, sessKey{r.Client, r.SeqNo})
		if p.read {
			met.observeRead(time.Since(p.start))
		} else {
			met.observeCommit(g.idx, time.Since(p.start))
		}
		g.srv.respond(p.cc, Response{ReqID: p.reqID, Status: StatusOK, Leader: int64(g.srv.cfg.Self), Result: r.Result})
	}
	for _, r := range dropped {
		met.readsDropped.Add(1)
		if p, ok := g.pending[sessKey{r.Client, r.SeqNo}]; ok {
			delete(g.pending, sessKey{r.Client, r.SeqNo})
			g.srv.respond(p.cc, Response{ReqID: p.reqID, Status: StatusNotLeader, Leader: int64(g.mod.Leader())})
		}
	}
	if probes, reasked := g.mod.ReadStats(); probes != g.probes || reasked != g.reasked {
		met.readProbes.Add(uint64(probes - g.probes))
		met.readsReasked.Add(uint64(reasked - g.reasked))
		g.probes, g.reasked = probes, reasked
	}
	g.rep.CompactEvery(g.srv.cfg.SnapshotEvery)
}

func (g *smrGroup[M]) start() { g.node.Start() }
func (g *smrGroup[M]) close() { g.node.Close() }

func (g *smrGroup[M]) leaderInfo() (bool, types.NodeID, bool) {
	var isLead bool
	var lead types.NodeID
	ok := g.node.CallWait(func() { isLead, lead = g.mod.IsLeader(), g.mod.Leader() })
	return isLead, lead, ok
}

func (g *smrGroup[M]) inspect(fn func(st *shard.Store)) bool {
	return g.node.CallWait(func() { fn(g.store) })
}

// status snapshots the group's replication state in one turn.
func (g *smrGroup[M]) status() (GroupStatus, bool) {
	var st GroupStatus
	ok := g.node.CallWait(func() {
		st = GroupStatus{
			Shard:    g.idx,
			IsLeader: g.mod.IsLeader(),
			Leader:   int64(g.mod.Leader()),
			Commit:   uint64(g.rep.Exec().NextSlot() - 1),
			Installs: g.rep.Installs(),
			Digest:   kvDigest(g.store.KV().Snapshot()),

			Sessions:  g.rep.Exec().Sessions(),
			SnapIndex: uint64(g.rep.SnapshotIndex()),
			SnapBytes: g.rep.SnapshotBytes(),

			RestoreFailed: g.restoreFailed,
		}
		if mod, ok := any(g.mod).(interface{ Members() []types.NodeID }); ok {
			for _, m := range mod.Members() {
				st.Members = append(st.Members, int64(m))
			}
		}
	})
	return st, ok
}

// submitConf submits a membership change if this node leads the group,
// reporting whether it was submitted. Commitment is asynchronous; the
// caller polls status until the member set reflects the change.
func (g *smrGroup[M]) submitConf(cc snapshot.ConfChange) bool {
	submitted := false
	g.node.CallWait(func() {
		if g.mod.IsLeader() {
			g.mod.Submit(snapshot.EncodeConfChange(cc))
			submitted = true
		}
	})
	return submitted
}
