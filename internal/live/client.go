package live

import (
	"bufio"
	"errors"
	"fmt"
	"net"
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
	// SessionBase+1, +2, … up to its peak number of concurrent Do/Go
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
// for as long as it runs, and concurrent Do/Go calls multiplex over one
// connection per node.
type Client struct {
	cfg ClientConfig
	pm  shard.PartitionMap

	reqID atomic.Uint64 // per-attempt match token

	// A node is referred to by its position in cfg.Addrs throughout;
	// a hint's node ID is turned into one by position.
	mu     sync.Mutex
	conns  []*cconn // nil or dead = (re)dial
	leader []int    // per-shard leader guess; -1 unknown
	closed bool
	// The session window: the sessions no operation holds, and how many
	// were ever opened — the peak number of operations in flight at once.
	free   []session
	minted uint64
}

// session is one smr client session: its ID and the last seqno issued
// under it. One Do holds it at a time, so it never has two requests
// outstanding and its seqnos only rise — the contract smr.Executor's
// one-entry-per-session dedup table is written for.
type session struct {
	id  types.ClientID
	seq uint64
}

// NewClient builds a client; no connection is made until the first
// operation.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("live: client needs at least one address")
	}
	if cfg.IDs == nil {
		cfg.IDs = make([]types.NodeID, len(cfg.Addrs))
		for i := range cfg.IDs {
			cfg.IDs[i] = types.NodeID(i)
		}
	}
	if len(cfg.IDs) != len(cfg.Addrs) {
		return nil, fmt.Errorf("live: client has %d node IDs for %d addresses", len(cfg.IDs), len(cfg.Addrs))
	}
	c := &Client{
		cfg:    cfg,
		pm:     shard.NewPartitionMap(cfg.Shards),
		conns:  make([]*cconn, len(cfg.Addrs)),
		leader: make([]int, cfg.Shards),
	}
	for i := range c.leader {
		c.leader[i] = -1
	}
	return c, nil
}

// position resolves a node ID to its index in cfg.Addrs, or -1 if the
// client was not given that node.
func (c *Client) position(id types.NodeID) int {
	for i, have := range c.cfg.IDs {
		if have == id {
			return i
		}
	}
	return -1
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
	node := c.leaderGuess(sh)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = errors.New("no attempt completed")
			}
			return nil, fmt.Errorf("%w: %v", ErrDeadline, lastErr)
		}
		if node < 0 || node >= len(c.cfg.Addrs) {
			node = attempt % len(c.cfg.Addrs)
		}
		resp, err := c.attempt(node, req)
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return nil, err
			}
			lastErr = fmt.Errorf("node %d: %w", c.cfg.IDs[node], err)
			c.dropLeader(sh, node)
			node = -1
			time.Sleep(retryBackoff)
			continue
		}
		switch resp.Status {
		case StatusOK:
			c.setLeader(sh, node)
			return resp.Result, nil
		case StatusNotLeader:
			lastErr = fmt.Errorf("node %d: %w", c.cfg.IDs[node], errNotLeader)
			c.dropLeader(sh, node)
			// A hint naming a node the client was not given is no hint.
			if hint := c.position(types.NodeID(resp.Leader)); hint >= 0 && hint != node {
				node = hint // fresh hint: redirect immediately
				continue
			}
			node = (node + 1) % len(c.cfg.Addrs)
			time.Sleep(retryBackoff)
		case StatusBadRequest:
			return nil, fmt.Errorf("live: server rejected request: %s", resp.Result)
		default: // StatusUnavailable and anything unknown
			lastErr = fmt.Errorf("node %d: unavailable", c.cfg.IDs[node])
			c.dropLeader(sh, node)
			node = -1
			time.Sleep(retryBackoff)
		}
	}
}

// Call is one in-flight pipelined operation started by Go.
type Call struct {
	Result types.Value
	Err    error
	done   chan struct{}
}

// Wait blocks until the operation finishes and returns its outcome.
func (cl *Call) Wait() (types.Value, error) {
	<-cl.done
	return cl.Result, cl.Err
}

// Go starts cmd without waiting — the pipelining entry point. The
// returned Call's Wait reports the outcome; any number of calls may be
// in flight at once.
func (c *Client) Go(cmd kvstore.Command) *Call {
	cl := &Call{done: make(chan struct{})}
	go func() {
		defer close(cl.done)
		cl.Result, cl.Err = c.Do(cmd)
	}()
	return cl
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
	return session{id: c.cfg.SessionBase + types.ClientID(c.minted)}
}

func (c *Client) putSession(s session) {
	c.mu.Lock()
	c.free = append(c.free, s)
	c.mu.Unlock()
}

func (c *Client) leaderGuess(sh int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leader[sh]
}

func (c *Client) setLeader(sh, node int) {
	c.mu.Lock()
	c.leader[sh] = node
	c.mu.Unlock()
}

// dropLeader forgets the guess only if it still points at the node
// that just failed (a concurrent success may have updated it).
func (c *Client) dropLeader(sh, node int) {
	c.mu.Lock()
	if c.leader[sh] == node {
		c.leader[sh] = -1
	}
	c.mu.Unlock()
}

// dropLeaderNode forgets every shard's guess pointing at node — called
// when node's connection dies, so shards that never got to observe a
// failed request don't walk into a dead leader on their next operation.
func (c *Client) dropLeaderNode(node int) {
	c.mu.Lock()
	for sh := range c.leader {
		if c.leader[sh] == node {
			c.leader[sh] = -1
		}
	}
	c.mu.Unlock()
}

// attempt sends req to one node and waits for its response.
func (c *Client) attempt(node int, req Request) (Response, error) {
	cn, err := c.conn(node)
	if err != nil {
		return Response{}, err
	}
	req.ReqID = c.reqID.Add(1)
	ch, err := cn.register(req.ReqID)
	if err != nil {
		return Response{}, err
	}
	if err := cn.write(req.encode()); err != nil {
		cn.unregister(req.ReqID)
		cn.fail(err)
		return Response{}, err
	}
	timeout := time.NewTimer(c.cfg.AttemptTimeout)
	defer timeout.Stop() // a reply takes its timer out of the heap with it
	select {
	case resp, ok := <-ch:
		if !ok {
			return Response{}, errors.New("connection lost")
		}
		return resp, nil
	case <-timeout.C:
		cn.unregister(req.ReqID)
		return Response{}, errors.New("attempt timed out")
	}
}

// conn returns node's live connection, dialing if needed.
func (c *Client) conn(node int) (*cconn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if cn := c.conns[node]; cn != nil && !cn.isDead() {
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()

	// Dial outside the lock; losers of a dial race just get replaced.
	conn, err := net.DialTimeout("tcp", c.cfg.Addrs[node], c.cfg.AttemptTimeout)
	if err != nil {
		return nil, err
	}
	cn := newCConn(conn)
	// Any connection death invalidates every leader guess at this node;
	// a losing dial racer triggers it too, which only costs a re-probe.
	cn.onDead = func() { c.dropLeaderNode(node) }
	if err := cn.write(encodeHello(helloClient, int64(c.cfg.SessionBase))); err != nil {
		cn.fail(err)
		return nil, err
	}
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

// cconn is one client→server connection: writes serialized by a
// mutex, responses demultiplexed to waiting attempts by request ID on
// a dedicated read goroutine.
type cconn struct {
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	// onDead, if set before the first write, runs once when the
	// connection dies (leader-cache invalidation).
	onDead func()

	mu      sync.Mutex
	pending map[uint64]chan Response
	dead    bool
}

func newCConn(conn net.Conn) *cconn {
	return &cconn{
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		pending: make(map[uint64]chan Response),
	}
}

func (cn *cconn) isDead() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.dead
}

func (cn *cconn) register(reqID uint64) (chan Response, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.dead {
		return nil, errors.New("connection lost")
	}
	ch := make(chan Response, 1)
	cn.pending[reqID] = ch
	return ch, nil
}

func (cn *cconn) unregister(reqID uint64) {
	cn.mu.Lock()
	delete(cn.pending, reqID)
	cn.mu.Unlock()
}

func (cn *cconn) write(frame []byte) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if err := WriteFrame(cn.bw, frame); err != nil {
		return err
	}
	return cn.bw.Flush()
}

// readLoop demultiplexes responses until the connection dies; then
// every waiting attempt is failed so it can retry elsewhere.
func (cn *cconn) readLoop() {
	for {
		payload, err := ReadFrame(cn.br, DefaultMaxFrame)
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
		if ok {
			delete(cn.pending, resp.ReqID)
		}
		cn.mu.Unlock()
		if ok {
			ch <- resp // buffered; never blocks
		}
	}
}

// fail kills the connection and wakes every waiting attempt. The
// cause is not recorded — waiters see a closed channel and retry.
func (cn *cconn) fail(_ error) {
	cn.mu.Lock()
	if cn.dead {
		cn.mu.Unlock()
		return
	}
	cn.dead = true
	pending := cn.pending
	cn.pending = nil
	cn.mu.Unlock()
	cn.conn.Close()
	if cn.onDead != nil {
		cn.onDead()
	}
	//lint:allow maporder failure wakeup; waiters are independent and order-insensitive
	for _, ch := range pending {
		close(ch)
	}
}
