package live

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/types"
)

// TransportConfig wires a Transport.
type TransportConfig struct {
	// Self is this node's ID; Addrs maps every cluster member
	// (including Self) to its TCP address.
	Self  types.NodeID
	Addrs map[types.NodeID]string

	// OnPeerFrame receives every inbound peer frame, on the connection's
	// read goroutine. The payload buffer is owned by the callee.
	OnPeerFrame func(from types.NodeID, payload []byte)
	// OnClient serves one client connection; it is called on the
	// connection's goroutine and returns when the connection is done.
	OnClient func(cc *ClientConn)
}

// The transport's fixed sizes and timings.
const (
	// peerQueueLen bounds each peer's outbound queue. A full queue drops
	// the new frame — best-effort delivery, the protocols' native fault
	// model.
	peerQueueLen = 1024
	// writeBatchMax bounds how many queued frames one writer pass drains
	// before flushing: outbound batching amortizes the syscall and the
	// TCP push over bursts.
	writeBatchMax = 128
	// dialTimeout bounds one connection attempt.
	dialTimeout = 500 * time.Millisecond
	// backoffMin and backoffMax bound the reconnect backoff.
	backoffMin, backoffMax = 20 * time.Millisecond, time.Second
)

// TransportStats counts wire activity (all counters monotonic).
type TransportStats struct {
	Sent       uint64 `json:"sent"`        // frames written to a peer socket
	Dropped    uint64 `json:"dropped"`     // frames dropped (full queue, dead peer, oversize)
	Reconnects uint64 `json:"reconnects"`  // successful re-dials after a connection loss
	PeerFrames uint64 `json:"peer_frames"` // inbound peer frames delivered
}

// Transport moves opaque frames between cluster nodes and serves
// client connections, all over one TCP listener. Outbound delivery is
// best-effort and ordered per peer (single writer goroutine each).
type Transport struct {
	cfg TransportConfig
	ln  net.Listener

	mu      sync.Mutex
	peers   map[types.NodeID]*peer
	conns   map[net.Conn]*ClientConn // inbound conns; nil value = peer conn
	closed  bool
	stop    chan struct{}
	wg      sync.WaitGroup
	started bool

	sent, dropped, reconnects, peerFrames atomic.Uint64
}

// NewTransport wraps a pre-created listener (see Listen). The address
// map is cloned: AddPeer grows the transport's copy without mutating
// the caller's.
func NewTransport(ln net.Listener, cfg TransportConfig) *Transport {
	addrs := make(map[types.NodeID]string, len(cfg.Addrs))
	for _, id := range det.SortedKeys(cfg.Addrs) {
		addrs[id] = cfg.Addrs[id]
	}
	cfg.Addrs = addrs
	return &Transport{
		cfg:   cfg,
		ln:    ln,
		peers: make(map[types.NodeID]*peer),
		conns: make(map[net.Conn]*ClientConn),
		stop:  make(chan struct{}),
	}
}

// AddPeer registers a peer address discovered after construction, so a
// node that joined a running cluster becomes reachable. First write
// wins: an id with a known address keeps it (its writer goroutine owns
// a snapshot of the address, so silently repointing would split them).
func (t *Transport) AddPeer(id types.NodeID, addr string) {
	if addr == "" || id == t.cfg.Self {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, known := t.cfg.Addrs[id]; !known {
		t.cfg.Addrs[id] = addr
	}
}

// Addr returns the listening address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Start launches the accept loop.
func (t *Transport) Start() {
	t.mu.Lock()
	if t.started || t.closed {
		t.mu.Unlock()
		return
	}
	t.started = true
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop()
}

// Stats returns a snapshot of the wire counters.
func (t *Transport) Stats() TransportStats {
	return TransportStats{
		Sent:       t.sent.Load(),
		Dropped:    t.dropped.Load(),
		Reconnects: t.reconnects.Load(),
		PeerFrames: t.peerFrames.Load(),
	}
}

// Send enqueues one frame for the peer, creating its writer on first
// use. A full queue, an unknown peer, or a closed transport drops the
// frame (counted, never blocking the caller).
func (t *Transport) Send(to types.NodeID, payload []byte) {
	if len(payload) > DefaultMaxFrame {
		t.dropped.Add(1)
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	p, ok := t.peers[to]
	if !ok {
		addr, known := t.cfg.Addrs[to]
		if !known || to == t.cfg.Self {
			t.mu.Unlock()
			t.dropped.Add(1)
			return
		}
		p = &peer{id: to, addr: addr, ch: make(chan []byte, peerQueueLen)}
		t.peers[to] = p
		t.wg.Add(1)
		go t.writeLoop(p)
	}
	t.mu.Unlock()
	select {
	case p.ch <- payload:
	default:
		t.dropped.Add(1)
	}
}

// peer is one outbound connection's state; only its writer goroutine
// touches the socket.
type peer struct {
	id   types.NodeID
	addr string
	ch   chan []byte
}

// writeLoop owns a peer's socket: it dials on demand with exponential
// backoff, writes queued frames in batches, and flushes once per
// batch. Any write error tears the connection down for re-dial; the
// in-flight batch is dropped, not retried — retransmission is the
// protocols' job.
func (t *Transport) writeLoop(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	backoff := backoffMin
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	everConnected := false
	batch := make([][]byte, 0, writeBatchMax)
	for {
		var first []byte
		select {
		case <-t.stop:
			return
		case first = <-p.ch:
		}
		batch = append(batch[:0], first)
	drain:
		for len(batch) < writeBatchMax {
			select {
			case f := <-p.ch:
				batch = append(batch, f)
			default:
				break drain
			}
		}
		if conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
			if err != nil {
				t.dropped.Add(uint64(len(batch)))
				select {
				case <-t.stop:
					return
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > backoffMax {
					backoff = backoffMax
				}
				continue
			}
			conn = c
			bw = bufio.NewWriter(conn)
			backoff = backoffMin
			if everConnected {
				t.reconnects.Add(1)
			}
			everConnected = true
			if err := WriteFrame(bw, encodeHello(helloPeer, int64(t.cfg.Self))); err != nil {
				conn.Close()
				conn = nil
				t.dropped.Add(uint64(len(batch)))
				continue
			}
		}
		writeErr := false
		for _, f := range batch {
			if err := WriteFrame(bw, f); err != nil {
				writeErr = true
				break
			}
		}
		if !writeErr {
			writeErr = bw.Flush() != nil
		}
		if writeErr {
			conn.Close()
			conn = nil
			t.dropped.Add(uint64(len(batch)))
			continue
		}
		t.sent.Add(uint64(len(batch)))
	}
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = nil
		t.mu.Unlock()
		t.wg.Add(1)
		go t.handleConn(conn)
	}
}

// handleConn reads the hello and serves the connection in its declared
// role until it dies.
func (t *Transport) handleConn(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	br := bufio.NewReader(conn)
	hello, err := ReadFrame(br, DefaultMaxFrame)
	if err != nil {
		conn.Close()
		return
	}
	role, id, err := decodeHello(hello)
	if err != nil {
		conn.Close()
		return
	}
	switch role {
	case helloPeer:
		from := types.NodeID(id)
		for {
			payload, err := ReadFrame(br, DefaultMaxFrame)
			if err != nil {
				conn.Close()
				return
			}
			t.peerFrames.Add(1)
			if t.cfg.OnPeerFrame != nil {
				t.cfg.OnPeerFrame(from, payload)
			}
		}
	case helloClient:
		cc := newClientConn(conn, br)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			cc.Close()
			return
		}
		t.conns[conn] = cc
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			cc.writeLoop()
		}()
		if t.cfg.OnClient != nil {
			t.cfg.OnClient(cc)
		}
		cc.Close()
	}
}

func (t *Transport) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// Close shuts the transport down: the listener stops, every tracked
// connection closes, every writer exits, and the call returns once all
// goroutines are done.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed = true
	close(t.stop) // peer writers exit via stop; their sockets close on the way out
	//lint:allow maporder teardown closes every inbound conn; close order is invisible to peers already told to stop
	for conn, cc := range t.conns {
		if cc != nil {
			cc.Close()
		} else {
			conn.Close()
		}
	}
	t.mu.Unlock()
	t.ln.Close()
	t.wg.Wait()
}

// ClientConn is one inbound client connection: framed reads on the
// serving goroutine, framed writes through a bounded queue drained by
// a dedicated writer (so a slow client never blocks a shard group's
// turn — its responses drop and its retries re-read the dedup cache).
type ClientConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	mu     sync.Mutex
	closed bool
	out    chan []byte

	closeOnce sync.Once
}

func newClientConn(c net.Conn, br *bufio.Reader) *ClientConn {
	return &ClientConn{c: c, br: br, bw: bufio.NewWriter(c), out: make(chan []byte, 256)}
}

// ReadRequest reads and decodes the next request frame.
func (cc *ClientConn) ReadRequest() (Request, error) {
	payload, err := ReadFrame(cc.br, DefaultMaxFrame)
	if err != nil {
		return Request{}, err
	}
	return decodeRequest(payload)
}

// Send enqueues one response; it reports false if the connection is
// closed or its queue is full (the client's retry path covers both).
func (cc *ClientConn) Send(p Response) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return false
	}
	select {
	case cc.out <- p.encode():
		return true
	default:
		return false
	}
}

// writeLoop drains the response queue, batching flushes.
func (cc *ClientConn) writeLoop() {
	for payload := range cc.out {
		if err := WriteFrame(cc.bw, payload); err != nil {
			cc.Close()
			continue // keep draining so Close's channel close releases us
		}
		if len(cc.out) == 0 {
			if err := cc.bw.Flush(); err != nil {
				cc.Close()
			}
		}
	}
}

// Close tears the connection down; safe to call from any goroutine,
// any number of times.
func (cc *ClientConn) Close() {
	cc.closeOnce.Do(func() {
		cc.mu.Lock()
		cc.closed = true
		close(cc.out)
		cc.mu.Unlock()
		cc.c.Close()
	})
}
