package live

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fortyconsensus/internal/explore"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/shard/histcheck"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// The served path in simulation: three real Servers and two clients on
// a runner.Cluster, every byte between them a codec-encoded frame on the
// simulated fabric. A server's peer frames and client answers leave
// through its wire seam (peerWire, replier); a delivered request is
// served by Server.serveClient over a reader of the delivered bytes; a
// tick is one Node.CallWait(mod.Tick) turn per group. The clients hold
// reused smr sessions and route every attempt through the router
// Client.Do uses. There is no listener, Transport, ticker or goroutine.

// Served-path episode shape, in ticks.
const (
	servedHorizon  = 600
	servedStopAt   = 400 // no operation starts after this; faults heal by 450
	servedTimeout  = 40  // an attempt's timeout
	servedBackoff  = 4   // the pause before a retry that backs off
	servedSessions = 2   // concurrent operations per client
	servedOps      = 40  // operations per client, at most
	servedShards   = 2
	servedServers  = 3
)

// servedKeys are the keys the clients write and read: few enough that
// operations overlap on a key, and each key stays under histcheck's 64
// operations per key.
var servedKeys = []string{"a", "b", "c", "d"}

// simFrame is one message on the simulated fabric: a peer frame between
// two servers (u32 group index | codec bytes, as Transport carries it), or
// a client connection's bytes, length-prefixed request or response
// frames.
type simFrame struct {
	From, To types.NodeID
	Client   bool
	Payload  []byte
}

func simFrameKind(f simFrame) string {
	switch {
	case !f.Client:
		return "peer"
	case f.To < servedServers:
		return "request"
	default:
		return "response"
	}
}

// simAddr is the address the simulated network knows node id by.
func simAddr(id types.NodeID) string { return "sim-" + strconv.Itoa(int(id)) }

// simServer hosts one Server on the cluster: its peerWire, and the
// runner.Node that steps frames into it and ticks its groups.
type simServer struct {
	srv   *Server
	self  types.NodeID
	addrs map[types.NodeID]string
	conns map[types.NodeID]*simConn
	out   []simFrame
	ticks []func()
}

func newSimServer(self types.NodeID, backend string, seed uint64) *simServer {
	addrs := map[types.NodeID]string{}
	for id := types.NodeID(0); id < servedServers; id++ {
		addrs[id] = simAddr(id)
	}
	srv, err := newServer(ServerConfig{Self: self, Addrs: addrs, Shards: servedShards, Backend: backend, Seed: seed})
	if err != nil {
		panic(err)
	}
	w := &simServer{srv: srv, self: self, addrs: addrs, conns: map[types.NodeID]*simConn{}}
	srv.peers = w
	for _, g := range srv.grs {
		tick, rep := simGroup(g)
		rep.Exec().KeepHistory()
		w.ticks = append(w.ticks, tick)
	}
	return w
}

// simGroup returns a hosted group's tick turn and its replica.
func simGroup(g hostedGroup) (func(), *smr.Replica) {
	switch g := g.(type) {
	case *smrGroup[raft.Message]:
		return func() { g.node.CallWait(g.mod.Tick) }, g.rep
	case *smrGroup[multipaxos.Message]:
		return func() { g.node.CallWait(g.mod.Tick) }, g.rep
	}
	panic(fmt.Sprintf("served: no simulated group for %T", g))
}

func (w *simServer) Send(to types.NodeID, payload []byte) {
	w.out = append(w.out, simFrame{From: w.self, To: to, Payload: payload})
}

func (w *simServer) peerAddr(id types.NodeID) string { return w.addrs[id] }

func (w *simServer) AddPeer(id types.NodeID, addr string) {
	if _, known := w.addrs[id]; !known {
		w.addrs[id] = addr
	}
}

// Step hands a peer frame to the server as its transport would, and a
// client's bytes to the request loop as one buffered read.
func (w *simServer) Step(f simFrame) {
	if !f.Client {
		w.srv.onPeerFrame(f.From, f.Payload)
		return
	}
	cc := w.conns[f.From]
	if cc == nil {
		cc = &simConn{w: w, client: f.From}
		w.conns[f.From] = cc
	}
	w.srv.serveClient(bufio.NewReader(bytes.NewReader(f.Payload)), cc)
}

func (w *simServer) Tick() {
	for _, tick := range w.ticks {
		tick()
	}
}

func (w *simServer) Drain() []simFrame {
	out := w.out
	w.out = nil
	return out
}

// simConn is one client's connection at a server: each answer is one
// response frame on the fabric. A connection its server's crash closed
// refuses every answer, as a closed ClientConn does.
type simConn struct {
	w      *simServer
	client types.NodeID
	closed bool
}

func (c *simConn) Send(resp Response) bool {
	var b bytes.Buffer
	if c.closed || WriteFrame(&b, resp.appendTo(nil)) != nil {
		return false
	}
	c.w.out = append(c.w.out, simFrame{From: c.w.self, To: c.client, Client: true, Payload: b.Bytes()})
	return true
}

// simOp is one client operation in flight on its session.
type simOp struct {
	sess    *session
	req     Request
	sh      int
	hist    int    // its histcheck id
	node    int    // the position its next attempt goes to; -1 = the attempt's turn
	attempt int    // attempts sent
	reqID   uint64 // the attempt waiting for an answer; 0 = none
	due     int    // the waiting attempt's timeout, else when the next one may leave
}

// simClient is one client on the cluster: a session window, the router
// Client.Do consults, and the operations in flight. It dials by address
// on the simulated network: dial maps an address to a node.
type simClient struct {
	self    types.NodeID
	now     func() int
	dial    map[string]types.NodeID
	pm      shard.PartitionMap
	route   router
	rng     *simnet.RNG
	hist    *histcheck.History
	free    []*session
	ops     []*simOp
	reqID   uint64
	started int
	done    int
	next    int       // no operation starts before this tick
	out     [][]byte  // request frames by destination node
	bad     *Response // a request the server refused as malformed
}

func newSimClient(self types.NodeID, addrs []string, ids []types.NodeID, seed uint64, now func() int, hist *histcheck.History) *simClient {
	c := &simClient{
		self: self, now: now, hist: hist,
		dial:  map[string]types.NodeID{},
		pm:    shard.NewPartitionMap(servedShards),
		route: newRouter(addrs, ids, servedShards),
		rng:   simnet.NewRNG(shard.MixSeed(seed, uint64(self))),
		out:   make([][]byte, servedServers),
	}
	for id := types.NodeID(0); id < servedServers; id++ {
		c.dial[simAddr(id)] = id
	}
	for i := servedSessions; i > 0; i-- {
		c.free = append(c.free, &session{id: types.ClientID(int(self)*1000 + i)})
	}
	return c
}

// command draws the next operation.
func (c *simClient) command() kvstore.Command {
	key := servedKeys[c.rng.Intn(len(servedKeys))]
	switch r := c.rng.Intn(10); {
	case r < 4:
		return kvstore.Incr(key, 1)
	case r < 7:
		return kvstore.Put(key, []byte(fmt.Sprintf("%d-%d", c.self, c.started)))
	default:
		return kvstore.Get(key)
	}
}

// send makes op's next attempt: a fresh request ID to the node the
// router picks.
func (c *simClient) send(op *simOp) {
	op.node = c.route.pick(op.node, op.attempt)
	op.attempt++
	c.reqID++
	op.reqID = c.reqID
	op.req.ReqID = c.reqID
	op.due = c.now() + servedTimeout
	to := c.dial[c.route.addrs[op.node]]
	c.out[to] = op.req.appendFrame(c.out[to])
}

// outcome routes op past its waiting attempt's end — resp, or lost —
// and finishes it on StatusOK.
func (c *simClient) outcome(op *simOp, resp Response, lost bool) {
	next, backoff := c.route.next(op.sh, op.node, resp, lost)
	op.reqID = 0
	if !lost && resp.Status == StatusOK {
		c.hist.End(op.hist, resp.Result, c.now())
		c.done++
		c.free = append(c.free, op.sess)
		for i, o := range c.ops {
			if o == op {
				c.ops = append(c.ops[:i], c.ops[i+1:]...)
				break
			}
		}
		return
	}
	op.node = next
	op.due = c.now()
	if backoff {
		op.due += servedBackoff
	} else {
		c.send(op)
	}
}

// Step reads a server's response frames, as cconn.readLoop does; a
// reply whose attempt is no longer waiting is dropped.
func (c *simClient) Step(f simFrame) {
	br := bufio.NewReader(bytes.NewReader(f.Payload))
	for {
		payload, err := readFrameInPlace(br)
		if err != nil {
			return
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			return
		}
		if resp.Status == StatusBadRequest {
			c.bad = &resp
			continue
		}
		for _, op := range c.ops {
			if op.reqID == resp.ReqID {
				c.outcome(op, resp, false)
				break
			}
		}
	}
}

// Tick times out waiting attempts, sends the retries whose backoff is
// over, and starts operations while a session is free.
func (c *simClient) Tick() {
	now := c.now()
	for _, op := range c.ops { // a lost attempt never finishes its operation
		switch {
		case op.reqID != 0 && now >= op.due:
			c.outcome(op, Response{}, true)
		case op.reqID == 0 && now >= op.due:
			c.send(op)
		}
	}
	for len(c.free) > 0 && c.started < servedOps && now < servedStopAt && now >= c.next {
		sess := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		sess.seq++
		cmd := c.command()
		op := &simOp{
			sess: sess, sh: c.pm.Shard(cmd.Key), hist: c.hist.Begin(cmd, now),
			req: Request{Client: sess.id, SeqNo: sess.seq, Op: cmd.Encode()},
		}
		op.node = c.route.leader[op.sh]
		c.started++
		c.next = now + 1 + c.rng.Intn(8)
		c.ops = append(c.ops, op)
		c.send(op)
	}
}

// connDied is what the client sees when server id's process dies: the
// router forgets id as any shard's leader (cconn.fail's onDead), and
// every attempt waiting on id is lost.
func (c *simClient) connDied(id types.NodeID) {
	for pos, addr := range c.route.addrs {
		if c.dial[addr] == id {
			c.route.forget(pos)
		}
	}
	for _, op := range c.ops { // a lost attempt never finishes its operation
		if op.reqID != 0 && c.dial[c.route.addrs[op.node]] == id {
			c.outcome(op, Response{}, true)
		}
	}
}

// Drain sends each node its burst: every request frame queued for it.
func (c *simClient) Drain() []simFrame {
	var out []simFrame
	for to, b := range c.out {
		if len(b) > 0 {
			out = append(out, simFrame{From: c.self, To: types.NodeID(to), Client: true, Payload: b})
			c.out[to] = nil
		}
	}
	return out
}

// servedTarget is the cluster's fault surface. A crash closes the
// server's client connections on both ends, as a dead process's would;
// a partition places client i on side i mod the number of sides, so it
// cuts each client off from the servers of the other sides only.
type servedTarget struct {
	*runner.Cluster[simFrame]
	servers []*simServer
	clients []*simClient
}

func (t servedTarget) Crash(id types.NodeID) {
	t.Cluster.Crash(id)
	if int(id) >= len(t.servers) {
		return
	}
	w := t.servers[id]
	for _, cc := range w.conns {
		cc.closed = true
	}
	clear(w.conns)
	for _, c := range t.clients {
		c.connDied(id)
	}
}

func (t servedTarget) Partition(groups ...[]types.NodeID) {
	sides := make([][]types.NodeID, len(groups))
	for i, g := range groups {
		sides[i] = append([]types.NodeID(nil), g...)
	}
	for i, c := range t.clients {
		sides[i%len(sides)] = append(sides[i%len(sides)], c.self)
	}
	t.Cluster.Partition(sides...)
}

// servedProtocol is the served path of one backend as an explore
// harness.
func servedProtocol(backend string) explore.Protocol {
	return explore.Protocol{
		Name: "served-" + backend, Nodes: servedServers, MinNodes: servedServers, Horizon: servedHorizon,
		New: func(_ int, seed uint64) *explore.Episode { return servedEpisode(backend, seed) },
	}
}

func servedEpisode(backend string, seed uint64) *explore.Episode {
	cl := runner.New(runner.Config[simFrame]{
		Fabric: simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 3, Seed: seed}),
		Dest:   func(f simFrame) types.NodeID { return f.To },
		Src:    func(f simFrame) types.NodeID { return f.From },
		Kind:   simFrameKind,
	})
	var servers []*simServer
	for id := types.NodeID(0); id < servedServers; id++ {
		w := newSimServer(id, backend, seed)
		servers = append(servers, w)
		cl.Add(id, w)
	}
	hist := &histcheck.History{}
	// Neither client is given every node, nor nodes in ID order: one
	// leading elsewhere is reached through a NotLeader reply's address.
	clients := []*simClient{
		newSimClient(3, []string{simAddr(0), simAddr(1)}, []types.NodeID{0, 1}, seed, cl.Now, hist),
		newSimClient(4, []string{simAddr(2), simAddr(1)}, []types.NodeID{2, 1}, seed, cl.Now, hist),
	}
	for _, c := range clients {
		cl.Add(c.self, c)
	}
	execs := make([][]*smr.Executor, servedShards)
	for _, w := range servers {
		for sh, g := range w.srv.grs {
			_, rep := simGroup(g)
			execs[sh] = append(execs[sh], rep.Exec())
		}
	}
	answered := 0 // operations done when the history was last checked
	var latched *explore.Violation
	var fp []byte
	return &explore.Episode{
		Target: servedTarget{Cluster: cl, servers: servers, clients: clients},
		Tick:   func(int) { cl.Step() },
		Check: func() *explore.Violation {
			if latched != nil {
				return latched
			}
			for _, c := range clients {
				if c.bad != nil {
					latched = &explore.Violation{Invariant: "request-refused", Detail: fmt.Sprintf("client %d: %+v", c.self, *c.bad)}
					return latched
				}
			}
			for sh, es := range execs {
				if err := smr.CheckPrefixConsistency(es...); err != nil {
					latched = &explore.Violation{Invariant: "log-agreement", Detail: fmt.Sprintf("shard %d: %v", sh, err)}
					return latched
				}
			}
			done := clients[0].done + clients[1].done
			if done != answered {
				answered = done
				if err := hist.Check(); err != nil {
					latched = &explore.Violation{Invariant: "linearizability", Detail: err.Error()}
				}
			}
			return latched
		},
		Fingerprint: func() string {
			fp = fp[:0]
			for _, es := range execs {
				for _, e := range es {
					fp = strconv.AppendUint(fp, uint64(e.NextSlot()), 10)
					fp = append(fp, ',')
				}
			}
			for _, c := range clients {
				fp = strconv.AppendInt(fp, int64(c.done), 10)
				fp = append(fp, '/')
			}
			return string(fp)
		},
		Healthy: func() bool {
			for _, c := range clients {
				if c.done == 0 || len(c.ops) > 0 {
					return false
				}
			}
			return true
		},
		Stats: cl.Stats,
	}
}

// servedMixes are the fault mixes the served path is swept under: the
// nemesis default crash-model mix, and every network fault with crashes.
var servedMixes = []struct {
	name    string
	classes []nemesis.Op
}{
	{"default", nil},
	{"drop,dup,delay,crash,partition", []nemesis.Op{nemesis.OpDropRate, nemesis.OpDupRate, nemesis.OpDelaySet, nemesis.OpCrash, nemesis.OpPartition}},
}

// TestServedPathCampaign sweeps the served path of both backends, 48
// seeds × 4 faults under each mix. Every run must keep per-shard log
// agreement across the three servers' executors and per-key
// linearizability of what the clients were answered; a failing run is
// shrunk and its reproducer printed.
func TestServedPathCampaign(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		for _, mix := range servedMixes {
			t.Run(backend+"/"+mix.name, func(t *testing.T) {
				res := explore.Campaign{
					Proto: servedProtocol(backend), Seeds: 48, SeedBase: 1, Faults: 4,
					Classes: mix.classes, Shrink: true,
				}.Run()
				t.Logf("runs %d, outcomes %v, delivered %d, dropped %d", res.Runs, res.Outcomes, res.Exposure.Delivered, res.Exposure.Dropped)
				// Every fault heals before the last quarter, so a run ends
				// with every operation answered on either backend.
				if res.Outcomes[explore.OutcomeStall] > 0 {
					t.Errorf("%d %s run(s) stalled", res.Outcomes[explore.OutcomeStall], backend)
				}
				for _, f := range res.Failures {
					t.Errorf("seed %d: %v\nshrunk to %d fault(s):\n%s", f.Result.Seed, f.Result.Violation,
						f.Shrunk.Schedule.FaultCount(), f.Shrunk.Encode())
				}
			})
		}
	}
}

// servedPins are the trace hashes of seeds 1–3 under 4 faults of the
// default mix: any change to what the served path does on the wire, in
// its groups or in the router moves them. Multi-Paxos' row was
// re-recorded when its replication became replog's (its frames changed
// shape: an Accept carries a batch, and heartbeats and catch-up are the
// core's); raft's did not move. Both again when a follower that heard
// its leader within an election timeout began ignoring another
// candidate (the voting rule the read lease rests on; the simulated
// servers ask for no lease), and Multi-Paxos' leader began filling the
// slots before a scheduled epoch with no-ops.
var servedPins = map[string][]string{
	BackendRaft:       {"5d269bda0cad713eb32fb34a62565046", "11bf66b9ccaa970e182c1b3e65abb98a", "293af08986d93bed25a334c973693151"},
	BackendMultiPaxos: {"7b068c812f7e0edfd3b0c56b860a0fd3", "6eb07cf1af406fe334c8b57abb3a5121", "d5893096f0ce59cc60aa8f9830c0ecdb"},
}

// TestServedPathPinned: the served path replays bit for bit — seeds 1–3
// hash the same with one worker and with a pool — and starts nothing: a
// one-worker sweep leaves no goroutine behind, and no episode builds a
// Transport or starts a ticker.
func TestServedPathPinned(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) {
			hashes := func(workers int) []string {
				var out []string
				explore.Campaign{
					Proto: servedProtocol(backend), Seeds: 3, SeedBase: 1, Faults: 4, Workers: workers,
					Log: func(format string, args ...any) {
						line := fmt.Sprintf(format, args...)
						if _, h, ok := strings.Cut(line, "hash "); ok {
							out = append(out, strings.TrimSuffix(h, ")"))
						}
					},
				}.Run()
				return out
			}
			// Goroutines an earlier test left may still be exiting: count
			// once the number holds still, and let the sweep's pool wind
			// down after it.
			before := settledGoroutines()
			one := hashes(1)
			if after := settledGoroutines(); after > before {
				t.Errorf("goroutines %d before a one-worker sweep, %d after", before, after)
			}
			if pool := hashes(0); strings.Join(pool, " ") != strings.Join(one, " ") {
				t.Fatalf("hashes with one worker %v, with a pool %v", one, pool)
			}
			if want := servedPins[backend]; strings.Join(one, " ") != strings.Join(want, " ") {
				t.Fatalf("seeds 1–3 hash %q, pinned %q", one, want)
			}
			w := newSimServer(0, backend, 1)
			if w.srv.tr != nil {
				t.Fatal("a simulated server built a Transport")
			}
			for _, g := range w.srv.grs {
				tick, _ := simGroup(g)
				tick()
			}
			for _, g := range w.srv.grs {
				switch g := g.(type) {
				case *smrGroup[raft.Message]:
					if g.node.started {
						t.Fatal("a simulated group started its ticker")
					}
				case *smrGroup[multipaxos.Message]:
					if g.node.started {
						t.Fatal("a simulated group started its ticker")
					}
				}
			}
		})
	}
}

// settledGoroutines is runtime.NumGoroutine once two readings 20 ms
// apart agree, or after two seconds.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}
