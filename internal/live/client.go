package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/types"
)

// Client errors.
var (
	// ErrClientClosed is returned once Close has been called.
	ErrClientClosed = errors.New("live: client closed")
	// ErrDeadline is wrapped into the error returned when the retry
	// loop runs out of time.
	ErrDeadline = errors.New("live: request deadline exceeded")
)

var errNotLeader = errors.New("live: not leader")

// ClientConfig wires a Client to a cluster.
type ClientConfig struct {
	// Addrs lists the TCP addresses of the nodes this client may use.
	Addrs []string
	// IDs names the node behind each address (the servers' Addrs map
	// keys), so a NotLeader hint — a node ID — finds the right address
	// when Addrs is not the full ordered peer set. Same length as Addrs;
	// nil means Addrs[i] is node i.
	IDs []types.NodeID
	// Shards must match the servers' shard count (default 2): the
	// client hashes keys with the same partition map to route each
	// operation straight to its owning group's leader guess.
	Shards int
	// SessionBase offsets this client's smr session IDs: it uses
	// SessionBase+1, +2, … up to its peak number of concurrent Do
	// calls and no further, so the bases of Clients that share a cluster
	// need only differ by more than that. A base must not be used twice
	// against the same cluster, not even by a later process: a fresh
	// Client restarts every session's seqnos at 1, below what the
	// servers' dedup tables remember, and its requests would be refused
	// as stale copies.
	SessionBase types.ClientID
	// AttemptTimeout bounds one request attempt (default 1s).
	AttemptTimeout time.Duration
	// Deadline bounds a whole operation including retries (default 20s).
	Deadline time.Duration
}

// retryBackoff is the pause between failed attempts. Leader redirects
// with a fresh hint skip it.
const retryBackoff = 25 * time.Millisecond

// ParseAddrs parses a comma-separated node list whose entries are
// either all host:port (ids is nil: entry i is node i) or all
// id=host:port — the command-line form of ClientConfig.Addrs and IDs.
func ParseAddrs(list string) (addrs []string, ids []types.NodeID, err error) {
	for _, entry := range strings.Split(list, ",") {
		name, addr, named := strings.Cut(strings.TrimSpace(entry), "=")
		if !named {
			addrs = append(addrs, name)
			continue
		}
		id, perr := strconv.ParseInt(name, 10, 64)
		if perr != nil || id < 0 {
			return nil, nil, fmt.Errorf("live: bad node id in address entry %q", entry)
		}
		addrs, ids = append(addrs, addr), append(ids, types.NodeID(id))
	}
	if ids != nil && len(ids) != len(addrs) {
		return nil, nil, fmt.Errorf("live: address list %q names some nodes but not all", list)
	}
	return addrs, ids, nil
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Shards < 1 {
		c.Shards = 2
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = time.Second
	}
	if c.Deadline <= 0 {
		c.Deadline = 20 * time.Second
	}
	return c
}

// Client talks to a live cluster: it dials nodes lazily, routes each
// operation to the shard leader it last saw (following NotLeader
// redirects and failing over across nodes), retries under a deadline,
// and pipelines safely — every in-flight operation owns an smr session
// for as long as it runs, and concurrent Do calls from many goroutines
// multiplex over one connection per node.
type Client struct {
	cfg ClientConfig
	pm  shard.PartitionMap

	reqID atomic.Uint64 // per-attempt match token
	stats clientStats   // shared by every connection

	// A node is referred to by its position in route throughout. The
	// router's nodes and conns only grow, under mu, when a NotLeader
	// reply names a node the client was not given: a slice read under mu
	// is a consistent view whose elements never change.
	mu     sync.Mutex
	route  router
	conns  []*cconn // by position; nil, dead or missing = (re)dial
	closed bool
	// The session window: the sessions no operation holds, and how many
	// were ever opened — the peak number of operations in flight at once.
	free   []session
	minted uint64
}

// session is one smr client session: its ID and the last seqno issued
// under it. One Do holds it at a time, so it never has two requests
// outstanding and its seqnos only rise — the contract smr.Executor's
// one-entry-per-session dedup table is written for. The same holding
// lets every attempt of every operation on it wait on one reply channel
// and one timer.
type session struct {
	id    types.ClientID
	seq   uint64
	reply chan Response // empty whenever no attempt is waiting on it
	timer *time.Timer   // stopped and drained whenever no attempt runs
}

// NewClient builds a client; no connection is made until the first
// operation.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("live: client needs at least one address")
	}
	if cfg.SessionBase < 0 {
		// The server refuses every negative client ID: a log value that
		// starts with one would read as a conf change or a batch.
		return nil, fmt.Errorf("live: negative session base %d", cfg.SessionBase)
	}
	if len(cfg.IDs) != len(cfg.Addrs) && cfg.IDs != nil {
		return nil, fmt.Errorf("live: client has %d node IDs for %d addresses", len(cfg.IDs), len(cfg.Addrs))
	}
	return &Client{
		cfg:   cfg,
		pm:    shard.NewPartitionMap(cfg.Shards),
		route: newRouter(cfg.Addrs, cfg.IDs, cfg.Shards),
		conns: make([]*cconn, len(cfg.Addrs)),
	}, nil
}

// ClientStats counts a client's request frames and the socket writes
// that carried them, over every connection it ever made: frames per
// write is how many callers' requests left together.
type ClientStats struct {
	Frames, Writes uint64
}

type clientStats struct {
	frames, writes atomic.Uint64
}

// Stats returns the client's frame and write counts so far.
func (c *Client) Stats() ClientStats {
	return ClientStats{Frames: c.stats.frames.Load(), Writes: c.stats.writes.Load()}
}

// router is a client's routing: the nodes it knows, by position, each
// shard's leader guess, and where an operation's next attempt goes
// after each outcome. It starts no goroutine and reads no clock, so the
// same code routes Client.Do, under Client.mu, and the simulated clients
// of the served-path campaign.
type router struct {
	// addrs and ids name node i by address and by ID; they grow when a
	// NotLeader reply names a node the router was not given.
	addrs  []string
	ids    []types.NodeID
	leader []int // per-shard leader guess; -1 unknown
}

// newRouter knows the nodes at addrs, named by ids (nil: node i is
// addrs[i]), and guesses no shard's leader yet.
func newRouter(addrs []string, ids []types.NodeID, shards int) router {
	// Copies: adopting a node appends to both, and must not write into
	// the caller's arrays.
	r := router{addrs: slices.Clone(addrs), ids: slices.Clone(ids), leader: make([]int, shards)}
	if r.ids == nil {
		r.ids = make([]types.NodeID, len(addrs))
		for i := range r.ids {
			r.ids[i] = types.NodeID(i)
		}
	}
	for i := range r.leader {
		r.leader[i] = -1
	}
	return r
}

// pick is the node an operation's attempt goes to: node, if it is one
// the router knows, else the attempt's turn in node order.
func (r *router) pick(node, attempt int) int {
	if node < 0 || node >= len(r.ids) {
		node = attempt % len(r.ids)
	}
	return node
}

// next records how an attempt at node for shard sh ended — a reply
// resp, or lost (the connection died or the attempt timed out) — and
// returns the node the next attempt goes to (-1: the attempt's turn)
// and whether to back off before it. Only a NotLeader reply with a
// fresh hint redirects at once.
func (r *router) next(sh, node int, resp Response, lost bool) (int, bool) {
	switch {
	case lost:
	case resp.Status == StatusOK:
		r.leader[sh] = node
		return node, false
	case resp.Status == StatusNotLeader:
		r.drop(sh, node)
		if hint := r.hint(resp); hint >= 0 && hint != node {
			return hint, false
		}
		return (node + 1) % len(r.ids), true
	}
	// Lost, StatusUnavailable and anything unknown.
	r.drop(sh, node)
	return -1, true
}

// hint resolves a NotLeader reply's leader to a position. A node the
// router was not given is adopted at the address the reply carries; a
// hint with neither a known ID nor an address is no hint (-1).
func (r *router) hint(resp Response) int {
	id := types.NodeID(resp.Leader)
	if at := slices.Index(r.ids, id); at >= 0 || resp.Leader < 0 || len(resp.Result) == 0 {
		return at
	}
	r.addrs = append(r.addrs, string(resp.Result))
	r.ids = append(r.ids, id)
	return len(r.ids) - 1
}

// drop forgets shard sh's guess only if it still points at the node
// that just failed (a concurrent success may have updated it).
func (r *router) drop(sh, node int) {
	if r.leader[sh] == node {
		r.leader[sh] = -1
	}
}

// forget drops every shard's guess pointing at node — called when
// node's connection dies, so shards that never got to observe a failed
// request don't walk into a dead leader on their next operation.
func (r *router) forget(node int) {
	for sh := range r.leader {
		r.drop(sh, node)
	}
}

// Do executes one KV command against the cluster and returns the
// committed result. It retries across redirects, timeouts, and node
// failures until ClientConfig.Deadline. A key the command codec cannot
// carry is refused before anything is sent.
func (c *Client) Do(cmd kvstore.Command) (types.Value, error) {
	if len(cmd.Key) > kvstore.MaxKeyLen {
		return nil, fmt.Errorf("live: key of %d bytes exceeds kvstore.MaxKeyLen (%d)", len(cmd.Key), kvstore.MaxKeyLen)
	}
	// The session is this operation's through every retry and redirect,
	// and goes back whatever the outcome. After a deadline the abandoned
	// request may still commit: ahead of the session's next one it
	// executes, behind it the executor refuses it as stale — either is a
	// legal end for an operation whose caller was told "unknown".
	sess := c.takeSession()
	sess.seq++
	defer c.putSession(sess)
	req := Request{Client: sess.id, SeqNo: sess.seq, Op: cmd.Encode()}
	sh := c.pm.Shard(cmd.Key)
	deadline := time.Now().Add(c.cfg.Deadline)
	c.mu.Lock()
	node := c.route.leader[sh]
	c.mu.Unlock()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = errors.New("no attempt completed")
			}
			return nil, fmt.Errorf("%w: %v", ErrDeadline, lastErr)
		}
		c.mu.Lock()
		node = c.route.pick(node, attempt)
		id := c.route.ids[node]
		c.mu.Unlock()
		resp, err := c.attempt(node, req, sess)
		switch {
		case errors.Is(err, ErrClientClosed):
			return nil, err
		case err != nil:
			lastErr = fmt.Errorf("node %d: %w", id, err)
		case resp.Status == StatusOK:
		case resp.Status == StatusNotLeader:
			lastErr = fmt.Errorf("node %d: %w", id, errNotLeader)
		case resp.Status == StatusBadRequest:
			return nil, fmt.Errorf("live: server rejected request: %s", resp.Result)
		default: // StatusUnavailable and anything unknown
			lastErr = fmt.Errorf("node %d: unavailable", id)
		}
		c.mu.Lock()
		next, backoff := c.route.next(sh, node, resp, err != nil)
		c.mu.Unlock()
		if err == nil && resp.Status == StatusOK {
			return resp.Result, nil
		}
		node = next
		if backoff {
			time.Sleep(retryBackoff)
		}
	}
}

// Close tears down every connection; in-flight operations fail.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, cn := range conns {
		if cn != nil {
			cn.fail(ErrClientClosed)
		}
	}
}

// takeSession hands the caller a session nobody else holds, opening a
// new one only when every session ever opened is in use.
func (c *Client) takeSession() session {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	c.minted++
	t := time.NewTimer(time.Hour)
	t.Stop()
	return session{id: c.cfg.SessionBase + types.ClientID(c.minted), reply: make(chan Response, 1), timer: t}
}

func (c *Client) putSession(s session) {
	c.mu.Lock()
	c.free = append(c.free, s)
	c.mu.Unlock()
}

// attempt sends req to one node under a fresh ReqID and waits, on the
// session's channel and timer, for the response to that ReqID.
func (c *Client) attempt(node int, req Request, sess session) (Response, error) {
	cn, err := c.conn(node)
	if err != nil {
		return Response{}, err
	}
	req.ReqID = c.reqID.Add(1)
	if err := cn.register(req.ReqID, sess.reply); err != nil {
		return Response{}, err
	}
	if err := cn.send(req); err != nil {
		cn.abandon(req.ReqID, sess.reply)
		cn.fail(err)
		return Response{}, err
	}
	sess.timer.Reset(c.cfg.AttemptTimeout)
	select {
	case resp := <-sess.reply:
		stopTimer(sess.timer)
		return resp, nil
	case <-cn.dead:
		stopTimer(sess.timer)
		cn.abandon(req.ReqID, sess.reply)
		return Response{}, errors.New("connection lost")
	case <-sess.timer.C:
		cn.abandon(req.ReqID, sess.reply)
		return Response{}, errors.New("attempt timed out")
	}
}

// stopTimer stops a running timer and drains a fire nobody received, so
// that the session's next Reset starts from an empty channel.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

// conn returns node's live connection, dialing if needed.
func (c *Client) conn(node int) (*cconn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	for len(c.conns) < len(c.route.addrs) {
		c.conns = append(c.conns, nil)
	}
	if cn := c.conns[node]; cn != nil && !cn.isDead() {
		c.mu.Unlock()
		return cn, nil
	}
	addr := c.route.addrs[node]
	c.mu.Unlock()

	// Dial outside the lock; losers of a dial race just get replaced.
	conn, err := net.DialTimeout("tcp", addr, c.cfg.AttemptTimeout)
	if err != nil {
		return nil, err
	}
	cn := newCConn(conn, &c.stats)
	// Any connection death invalidates every leader guess at this node;
	// a losing dial racer triggers it too, which only costs a re-probe.
	cn.onDead = func() {
		c.mu.Lock()
		c.route.forget(node)
		c.mu.Unlock()
	}
	// The hello leaves in the first request's write.
	cn.out = append(binary.BigEndian.AppendUint32(nil, helloLen), encodeHello(helloClient, int64(c.cfg.SessionBase))...)
	go cn.readLoop()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cn.fail(ErrClientClosed)
		return nil, ErrClientClosed
	}
	if old := c.conns[node]; old != nil && !old.isDead() {
		// Lost a dial race; use the established winner.
		c.mu.Unlock()
		cn.fail(errors.New("duplicate dial"))
		return old, nil
	}
	c.conns[node] = cn
	c.mu.Unlock()
	return cn, nil
}

// cconn is one client→server connection: request frames flat-combined
// into shared writes (send), responses demultiplexed to waiting attempts
// by request ID on a dedicated read goroutine.
type cconn struct {
	conn  net.Conn
	br    *bufio.Reader
	stats *clientStats

	// The combined write path. out holds the frames queued for the next
	// write and spare the buffer the last write took, to become out once
	// that write is done; writing is set while one caller writes for
	// all. After a failed write writing stays set: the connection is
	// finished, and its writer's attempt fails it.
	wmu     sync.Mutex
	out     []byte
	spare   []byte
	writing bool

	// onDead, if set before the first write, runs once when the
	// connection dies (leader-cache invalidation).
	onDead func()

	// pending maps each waiting attempt's ReqID to its session's reply
	// channel. Only readLoop, which then sends the reply, and abandon
	// remove an entry; a reply whose ReqID is not here — its attempt gave
	// up — is dropped, so it never answers a later attempt.
	mu      sync.Mutex
	pending map[uint64]chan Response
	dead    chan struct{} // closed by fail: wakes every waiter
}

func newCConn(conn net.Conn, stats *clientStats) *cconn {
	return &cconn{
		conn:    conn,
		br:      bufio.NewReader(conn),
		stats:   stats,
		pending: make(map[uint64]chan Response),
		dead:    make(chan struct{}),
	}
}

func (cn *cconn) isDead() bool {
	select {
	case <-cn.dead:
		return true
	default:
		return false
	}
}

func (cn *cconn) register(reqID uint64, ch chan Response) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.isDead() {
		return errors.New("connection lost")
	}
	cn.pending[reqID] = ch
	return nil
}

// abandon withdraws a waiting attempt. If readLoop took its entry
// first, the reply is on its way into ch and is drained here, so the
// session's channel is empty for its next attempt.
func (cn *cconn) abandon(reqID uint64, ch chan Response) {
	cn.mu.Lock()
	_, waiting := cn.pending[reqID]
	delete(cn.pending, reqID)
	cn.mu.Unlock()
	if !waiting {
		<-ch
	}
}

// send queues req as one frame and sees it written, flat-combined: a
// caller that finds another's write in progress leaves its frame for
// that writer's next round and returns at once; one that finds none
// becomes the writer. The writer yields once first, so the callers the
// last batch of replies woke queue their frames behind its own, then
// writes whatever is queued, one write per round, until a round finds
// nothing. A nil return means the frame is written or in the hands of
// a writer; a failed write is reported to the writer alone, whose
// attempt fails the connection, and every other waiter wakes on dead.
func (cn *cconn) send(req Request) error {
	cn.wmu.Lock()
	cn.out = req.appendFrame(cn.out)
	cn.stats.frames.Add(1)
	if cn.writing {
		cn.wmu.Unlock()
		return nil
	}
	cn.writing = true
	cn.wmu.Unlock()
	runtime.Gosched()
	cn.wmu.Lock()
	for len(cn.out) > 0 {
		buf := cn.out
		cn.out, cn.spare = cn.spare[:0], nil
		cn.wmu.Unlock()
		_, err := cn.conn.Write(buf)
		cn.stats.writes.Add(1)
		if err != nil {
			return err
		}
		if cap(buf) > maxFrameScratch {
			buf = nil // a burst of large values: let it go
		}
		cn.wmu.Lock()
		cn.spare = buf
	}
	cn.writing = false
	cn.wmu.Unlock()
	return nil
}

// readLoop demultiplexes responses until the connection dies; then
// every waiting attempt is failed so it can retry elsewhere.
func (cn *cconn) readLoop() {
	for {
		payload, err := readFrameInPlace(cn.br)
		if err != nil {
			cn.fail(err)
			return
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			cn.fail(err)
			return
		}
		cn.mu.Lock()
		ch, ok := cn.pending[resp.ReqID]
		delete(cn.pending, resp.ReqID)
		cn.mu.Unlock()
		if ok {
			ch <- resp // buffered and empty while its attempt waits: never blocks
		}
	}
}

// fail kills the connection and wakes every waiting attempt. The
// cause is not recorded — waiters see dead closed and retry.
func (cn *cconn) fail(_ error) {
	cn.mu.Lock()
	if cn.isDead() {
		cn.mu.Unlock()
		return
	}
	close(cn.dead)
	cn.mu.Unlock()
	cn.conn.Close()
	if cn.onDead != nil {
		cn.onDead()
	}
}
