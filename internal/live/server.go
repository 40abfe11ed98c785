package live

import (
	"bufio"
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
	cfg   ServerConfig
	pm    shard.PartitionMap
	tr    *Transport // the TCP host: listener, dialers, connections
	peers peerWire   // where the groups send; tr over TCP
	grs   []hostedGroup
	met   *ServerMetrics

	mu     sync.Mutex
	closed bool
	http   []*http.Server
}

// peerWire is the one seam between a Server and what carries its peer
// traffic: the groups' frames go out through Send, and a redirect names
// the leader at peerAddr. *Transport is the TCP one; a simulated wire
// turns each frame into a message on a simulated fabric.
type peerWire interface {
	Send(to types.NodeID, payload []byte)
	peerAddr(id types.NodeID) string
	AddPeer(id types.NodeID, addr string)
}

// replier answers one client connection: every response, redirect,
// refusal and admin reply leaves through Send, which reports false for a
// connection that refused it. *ClientConn is the TCP one.
type replier interface {
	Send(Response) bool
}

// hostedGroup erases the message-type parameter so the server can mix
// backends behind one slice.
type hostedGroup interface {
	start()
	close()
	deliver(payload []byte)
	serve(rc replier, ops []clientOp, lease bool)
	leaderInfo() (isLeader bool, leader types.NodeID, ok bool)
	inspect(fn func(st *shard.Store)) bool
	status() (GroupStatus, bool)
	elections() (changes int, leaderlessMs float64, ok bool)
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
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.tr = NewTransport(ln, TransportConfig{
		Self:        s.cfg.Self,
		Addrs:       s.cfg.Addrs,
		OnPeerFrame: s.onPeerFrame,
		OnClient:    func(cc *ClientConn) { s.serveClient(cc.br, cc) },
	})
	s.peers = s.tr
	return s, nil
}

// newServer builds a node's groups with no wire: its caller sets peers
// before the first turn.
func newServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("live: empty address map")
	}
	s := &Server{
		cfg: cfg,
		pm:  shard.NewPartitionMap(cfg.Shards),
		met: newServerMetrics(cfg.Shards),
	}
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
func (s *Server) onPeerFrame(_ types.NodeID, payload []byte) {
	r := wire.NewReader(payload)
	idx := r.U32()
	if r.Err() != nil || idx >= uint32(len(s.grs)) {
		s.met.peerDecodeErrors.Add(1)
		return
	}
	s.grs[idx].deliver(r.View(r.Len()))
}

// serveClient runs one client connection's request loop over br,
// answering through rc, until br fails (a TCP connection's socket dies;
// a simulated delivery's bytes run out). A pass reads the next request,
// then every request frame br's buffer already holds whole — a burst
// bounded by the buffer, read with no further syscall — and hands each
// shard group its share of the burst as one turn.
//
// The reads of a burst that carries no write, on any shard, may be
// answered on the leader's read lease. A burst with a write takes a
// round for its reads as well: a Get answered at once would split the
// callers whose requests now share the write's round trip (DESIGN.md
// "Reads").
func (s *Server) serveClient(br *bufio.Reader, rc replier) {
	shares := make([][]clientOp, len(s.grs))
	for {
		req, err := readRequest(br)
		for err == nil {
			s.route(rc, req, shares)
			if !frameBuffered(br) {
				break
			}
			req, err = readRequest(br)
		}
		lease := true
		for _, share := range shares {
			for _, op := range share {
				lease = lease && op.read
			}
		}
		for i, share := range shares {
			if len(share) > 0 {
				s.grs[i].serve(rc, share, lease)
				shares[i] = share[:0]
			}
		}
		if err != nil {
			return
		}
	}
}

// clientOp is one client request on its way to its shard group.
type clientOp struct {
	Request
	read bool
}

// route answers an admin or malformed request at once and appends any
// other to its shard group's share of the burst.
func (s *Server) route(rc replier, req Request, shares [][]clientOp) {
	s.met.requests.Add(1)
	if req.Client < 0 {
		// A log value starts with its client ID, and the conf-change and
		// batch magics both start with the high bit set.
		s.refuse(rc, req, "reserved client id")
		return
	}
	if len(req.Op) > 0 && req.Op[0] >= OpAdminStatus && req.Op[0] <= opAdminMax {
		s.handleAdmin(rc, req)
		return
	}
	op, key, _, _, ok := kvstore.View(req.Op)
	if !ok || req.SeqNo == 0 {
		s.refuse(rc, req, "undecodable command")
		return
	}
	sh := s.pm.Shard(string(key))
	shares[sh] = append(shares[sh], clientOp{req, op == kvstore.OpGet})
}

// refuse answers a request the server cannot take StatusBadRequest.
func (s *Server) refuse(rc replier, req Request, why string) {
	s.met.badReq.Add(1)
	s.respond(rc, Response{ReqID: req.ReqID, Status: StatusBadRequest, Leader: -1, Result: types.Value(why)})
}

// respond queues a response on the client's connection, counting one the
// connection refused (its queue is full, or it has closed).
func (s *Server) respond(rc replier, resp Response) {
	if !rc.Send(resp) {
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
// the runner contract plus submission, reads, leadership, membership
// and the decision stream. raft.Node and multipaxos.Node both satisfy it.
type SMRModule[M any] interface {
	Module[M]
	smr.Module
	smr.Reader
	Submit(types.Value)
	IsLeader() bool
	Leader() types.NodeID
	Members() []types.NodeID
	ReadStats() (probes, reasked, leased int)
}

// waiter is what a group needs to answer a request its session table
// took.
type waiter struct {
	rc    replier
	reqID uint64
	start time.Time
	read  bool
}

// smrGroup is the live host of one shard group's replica: the live.Node
// that serializes the module's turns, the wire codec, the Replica that
// moves committed decisions into shard.Store and compacts on cadence,
// and its smr.Sessions table, which holds each session's request until
// its answer. Everything below node is touched only inside a turn, under
// the node's lock.
type smrGroup[M any] struct {
	srv   *Server
	idx   int
	mod   SMRModule[M]
	codec Codec[M]
	dest  func(M) types.NodeID
	node  *Node[M]
	rep   *smr.Replica
	table *smr.Sessions[waiter]
	store *shard.Store

	// restoreFailed latches the first failed snapshot restore: the
	// replica applies nothing after it, and its table refuses client
	// requests.
	restoreFailed bool

	probes, reasked, leased int    // the module's read counters, as last added to srv.met
	ops                     uint64 // the executor's OpsApplied, as last added to srv.met

	// The believed leader as the last turn left it, for status'
	// leader_changes and leaderless_ms (leaderChanged).
	lead          types.NodeID
	leaderChanges int
	leaderlessAt  time.Time     // when the current leaderless stretch began; zero while a leader is named
	leaderless    time.Duration // the last finished leaderless stretch

	enc []byte // frame's scratch, reused across sends
}

func newSMRGroup[M any](s *Server, idx int, mod SMRModule[M], codec Codec[M], dest func(M) types.NodeID) *smrGroup[M] {
	g := &smrGroup[M]{
		srv: s, idx: idx, mod: mod, codec: codec, dest: dest,
		store: shard.NewStore(),
		lead:  -1,
	}
	g.rep = smr.NewReplica(s.cfg.Self, mod, g.store)
	g.table = smr.NewSessions[waiter](g.rep, mod)
	g.node = NewNode[M](mod, s.cfg.Self, dest, g.send, g.afterTurn, NodeConfig{
		TickEvery: s.cfg.TickEvery,
	})
	return g
}

// send encodes one outbound module message and hands it to the wire,
// prefixed with the group index.
func (g *smrGroup[M]) send(m M) {
	g.srv.peers.Send(g.dest(m), g.frame(m))
}

// maxFrameScratch is the largest encoding buffer a group keeps between
// sends; a catch-up batch of large values (up to snapshot.BatchBytes)
// outgrows it and is let go.
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

// serve runs one connection's burst for this group as one turn, on the
// connection's goroutine: the session table takes or refuses each
// request, and its writes become one Submit. lease lets its reads be
// answered on the leader's read lease, which only a node whose ticker
// runs asks for: a lease is counted in ticks, and a node that is not
// started (the simulator's) has no clock to hold it by.
func (g *smrGroup[M]) serve(rc replier, ops []clientOp, lease bool) {
	ok := g.node.CallWait(func() {
		now := time.Now()
		lease = lease && g.node.started
		for _, op := range ops {
			req := types.Request{Client: op.Client, SeqNo: op.SeqNo, Op: op.Op}
			switch g.table.Enter(req, op.read, lease, waiter{rc: rc, reqID: op.ReqID, start: now, read: op.read}) {
			case smr.Dead:
				g.srv.respond(rc, Response{ReqID: op.ReqID, Status: StatusUnavailable, Leader: -1})
			case smr.NotLeader:
				g.srv.met.notLeader.Add(1)
				g.redirect(rc, op.ReqID)
			}
		}
		if g.table.Propose() {
			g.srv.met.proposed.Add(1)
		}
	})
	if !ok {
		for _, op := range ops {
			g.srv.respond(rc, Response{ReqID: op.ReqID, Status: StatusUnavailable, Leader: -1})
		}
	}
}

// redirect answers reqID StatusNotLeader, naming the group's leader by
// ID and, in Result, by the address this node's wire dials it at
// (joiners that AddPeer taught it included), so a client that was not
// given the leader's address can still reach it.
func (g *smrGroup[M]) redirect(rc replier, reqID uint64) {
	lead := g.mod.Leader()
	resp := Response{ReqID: reqID, Status: StatusNotLeader, Leader: int64(lead)}
	if lead >= 0 {
		resp.Result = types.Value(g.srv.peers.peerAddr(lead))
	}
	g.srv.respond(rc, resp)
}

// afterTurn ends every turn, under the node's lock: pump the session
// table, answer the clients whose requests it applied or whose reads it
// served, redirect those whose reads the module dropped, compact on
// cadence. The turn that finds the replica dead answers every waiting
// request StatusUnavailable.
func (g *smrGroup[M]) afterTurn() {
	_, answered, orphans, err := g.table.Pump()
	met := g.srv.met
	if err != nil {
		if !g.restoreFailed {
			g.restoreFailed = true
			met.restoreFailed.Add(1)
		}
		for _, w := range orphans {
			g.srv.respond(w.rc, Response{ReqID: w.reqID, Status: StatusUnavailable, Leader: -1})
		}
		return
	}
	for _, a := range answered {
		if a.Waiter.read {
			met.observeRead(time.Since(a.Waiter.start))
		} else {
			met.observeCommit(g.idx, time.Since(a.Waiter.start))
		}
		g.srv.respond(a.Waiter.rc, Response{ReqID: a.Waiter.reqID, Status: StatusOK, Leader: int64(g.srv.cfg.Self), Result: a.Result})
	}
	for _, w := range orphans {
		met.readsDropped.Add(1)
		g.redirect(w.rc, w.reqID)
	}
	if ops := g.rep.Exec().OpsApplied(); ops != g.ops {
		met.applied.Add(ops - g.ops)
		g.ops = ops
	}
	if probes, reasked, leased := g.mod.ReadStats(); probes != g.probes || reasked != g.reasked || leased != g.leased {
		met.readProbes.Add(uint64(probes - g.probes))
		met.readsReasked.Add(uint64(reasked - g.reasked))
		met.readsLeased.Add(uint64(leased - g.leased))
		g.probes, g.reasked, g.leased = probes, reasked, leased
	}
	if lead := g.mod.Leader(); lead != g.lead {
		g.leaderChanged(lead)
	}
	g.rep.CompactEvery(g.srv.cfg.SnapshotEvery)
}

// leaderChanged records a turn that left the module naming another
// leader, or none: a known one is a leader change, and none opens a
// leaderless stretch that the next known one closes.
func (g *smrGroup[M]) leaderChanged(lead types.NodeID) {
	now := time.Now()
	switch {
	case lead < 0:
		g.leaderlessAt = now
	case g.lead < 0 && !g.leaderlessAt.IsZero():
		g.leaderless = now.Sub(g.leaderlessAt)
		g.leaderlessAt = time.Time{}
	}
	if lead >= 0 {
		g.leaderChanges++
	}
	g.lead = lead
}

// millis is d in milliseconds, to the microsecond.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// start opens the boot's leaderless stretch, then the ticker.
func (g *smrGroup[M]) start() {
	g.node.CallWait(func() {
		if g.lead < 0 {
			g.leaderlessAt = time.Now()
		}
	})
	g.node.Start()
}
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
			Ops:      g.rep.Exec().OpsApplied(),
			Installs: g.rep.Installs(),
			Digest:   kvDigest(g.store.KV().Snapshot()),

			Sessions:  g.rep.Exec().Sessions(),
			Waiting:   g.table.Len(),
			SnapIndex: uint64(g.rep.SnapshotIndex()),
			SnapBytes: g.rep.SnapshotBytes(),

			RestoreFailed: g.restoreFailed,
		}
		st.LeaderChanges, st.LeaderlessMs = g.leaderGauges()
		for _, m := range g.mod.Members() {
			st.Members = append(st.Members, int64(m))
		}
	})
	return st, ok
}

// leaderGauges returns leader_changes and leaderless_ms (GroupStatus);
// call it inside the group's turn.
func (g *smrGroup[M]) leaderGauges() (int, float64) {
	if g.lead < 0 && !g.leaderlessAt.IsZero() {
		return g.leaderChanges, millis(time.Since(g.leaderlessAt))
	}
	return g.leaderChanges, millis(g.leaderless)
}

// elections reads leaderGauges in one turn, for the /metrics scrape.
func (g *smrGroup[M]) elections() (changes int, leaderlessMs float64, ok bool) {
	ok = g.node.CallWait(func() { changes, leaderlessMs = g.leaderGauges() })
	return changes, leaderlessMs, ok
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
