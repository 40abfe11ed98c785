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
	// read goroutine. The payload may be a view of the connection's read
	// buffer: it is valid only until the callee returns, which copies what
	// it keeps.
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
	// writeBatchMax bounds how many waiting frames one writer pass drains
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
	Reconnects uint64 `json:"reconnects"`  // successful re-dials after a connection loss (dialing side only)
	PeerFrames uint64 `json:"peer_frames"` // inbound peer frames delivered
}

// Transport moves opaque frames between cluster nodes and serves
// client connections, all over one TCP listener. A node pair shares one
// connection, dialed by the lower ID, so a reply carries the TCP ACK its
// request drew. Outbound delivery is best-effort and ordered per peer
// (single writer goroutine each).
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
// node that joined a running cluster becomes reachable; a started
// transport dials it at once if this node is the pair's lower ID. First
// write wins: an id with a known address keeps it (its dialer owns a
// snapshot of the address, so silently repointing would split them).
func (t *Transport) AddPeer(id types.NodeID, addr string) {
	if addr == "" || id == t.cfg.Self {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, known := t.cfg.Addrs[id]; !known {
		t.cfg.Addrs[id] = addr
		if t.started && !t.closed && id > t.cfg.Self {
			t.wg.Add(1)
			go t.dialLoop(t.peerLocked(id), addr)
		}
	}
}

// Addr returns the listening address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Start launches the accept loop and dials every known higher-ID peer.
func (t *Transport) Start() {
	t.mu.Lock()
	if t.started || t.closed {
		t.mu.Unlock()
		return
	}
	t.started = true
	for _, id := range det.SortedKeys(t.cfg.Addrs) {
		if id > t.cfg.Self {
			t.wg.Add(1)
			go t.dialLoop(t.peerLocked(id), t.cfg.Addrs[id])
		}
	}
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
// use. The frame waits in the queue while no connection to the peer is
// up. A full queue, an unknown peer, or a closed transport drops the
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
		if _, known := t.cfg.Addrs[to]; !known || to == t.cfg.Self {
			t.mu.Unlock()
			t.dropped.Add(1)
			return
		}
		p = t.peerLocked(to)
	}
	t.mu.Unlock()
	select {
	case p.ch <- payload:
	default:
		t.dropped.Add(1)
	}
}

// peer is one node pair's outbound state; past the hello, only its
// writer goroutine writes the pair's socket.
type peer struct {
	id    types.NodeID
	ch    chan []byte
	conns chan net.Conn // the pair's live connection, handed to the writer
	conn  net.Conn      // the last one handed over; guarded by Transport.mu
}

// peerLocked returns id's peer, creating it and its writer on first
// use. t.mu held, transport not closed.
func (t *Transport) peerLocked(id types.NodeID) *peer {
	p, ok := t.peers[id]
	if !ok {
		p = &peer{id: id, ch: make(chan []byte, peerQueueLen), conns: make(chan net.Conn)}
		t.peers[id] = p
		t.wg.Add(1)
		go t.writeLoop(p)
	}
	return p
}

// dialLoop keeps the pair's connection up from the lower ID's side: it
// dials, says hello, serves the connection until it dies, and dials
// again, after a backoff that doubles while dials fail.
func (t *Transport) dialLoop(p *peer, addr string) {
	defer t.wg.Done()
	var backoff time.Duration
	everConnected := false
	for {
		select {
		case <-t.stop:
			return
		case <-time.After(backoff):
		}
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			if err = WriteFrame(conn, encodeHello(helloPeer, int64(t.cfg.Self))); err != nil {
				conn.Close()
			}
		}
		if err != nil {
			backoff = min(max(2*backoff, backoffMin), backoffMax)
			continue
		}
		if everConnected {
			t.reconnects.Add(1)
		}
		everConnected, backoff = true, backoffMin
		t.servePeer(p, conn, bufio.NewReader(conn))
	}
}

// servePeer runs one peer connection, dialed or accepted: it closes the
// pair's previous connection, which a new one means is dead (and which
// may hold the writer in a stuck write), hands the socket to the peer's
// writer, then delivers the frames it reads until the connection dies.
func (t *Transport) servePeer(p *peer, conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	t.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	t.mu.Unlock()
	select {
	case <-t.stop:
		return
	case p.conns <- conn:
	}
	for {
		payload, err := readFrameInPlace(br)
		if err != nil {
			return
		}
		t.peerFrames.Add(1)
		if t.cfg.OnPeerFrame != nil {
			t.cfg.OnPeerFrame(p.id, payload)
		}
	}
}

// writeLoop owns the writes to a peer's socket: it writes the peer's
// waiting frames in batches and flushes once per batch. With no
// connection up, frames wait in the queue. Any write error tears the
// connection down until servePeer hands over the next one; the in-flight
// batch is dropped, not retried — retransmission is the protocols' job.
func (t *Transport) writeLoop(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	batch := make([][]byte, 0, writeBatchMax)
	for {
		var in chan []byte
		if conn != nil {
			in = p.ch
		}
		var first []byte
		select {
		case <-t.stop:
			return
		case conn = <-p.conns:
			bw = bufio.NewWriter(conn)
			continue
		case first = <-in:
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
	hello, err := ReadFrame(br, helloLen)
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
		// Only the pair's lower ID dials.
		from := types.NodeID(id)
		t.mu.Lock()
		if t.closed || from >= t.cfg.Self {
			t.mu.Unlock()
			conn.Close()
			return
		}
		p := t.peerLocked(from)
		t.mu.Unlock()
		t.servePeer(p, conn, br)
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
// The queue holds responses, not their encodings: the writer encodes
// each into one reused buffer, so a reply's Result must not change
// once it is sent. None does: kvstore.Store writes no stored value in
// place, and every other Result is made for its reply.
type ClientConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	mu     sync.Mutex
	closed bool
	out    chan Response

	closeOnce sync.Once
}

func newClientConn(c net.Conn, br *bufio.Reader) *ClientConn {
	return &ClientConn{c: c, br: br, bw: bufio.NewWriter(c), out: make(chan Response, 256)}
}

// ReadRequest reads and decodes the next request frame.
func (cc *ClientConn) ReadRequest() (Request, error) {
	payload, err := readFrameInPlace(cc.br)
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
	case cc.out <- p:
		return true
	default:
		return false
	}
}

// writeLoop drains the response queue, batching flushes.
func (cc *ClientConn) writeLoop() {
	var payload []byte
	for p := range cc.out {
		payload = p.appendTo(payload[:0])
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
