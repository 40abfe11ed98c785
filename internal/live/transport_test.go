package live

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"fortyconsensus/internal/types"
)

// frameSink collects inbound peer frames thread-safely.
type frameSink struct {
	mu     sync.Mutex
	frames []string
	froms  []types.NodeID
}

func (s *frameSink) on(from types.NodeID, payload []byte) {
	s.mu.Lock()
	s.frames = append(s.frames, string(payload))
	s.froms = append(s.froms, from)
	s.mu.Unlock()
}

func (s *frameSink) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.frames...)
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// newPair builds two loopback transports that know each other.
func newPair(t *testing.T, sink0, sink1 *frameSink) (*Transport, *Transport) {
	t.Helper()
	ln0, addr0, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	ln1, addr1, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[types.NodeID]string{0: addr0, 1: addr1}
	t0 := NewTransport(ln0, TransportConfig{Self: 0, Addrs: addrs, OnPeerFrame: sink0.on})
	t1 := NewTransport(ln1, TransportConfig{Self: 1, Addrs: addrs, OnPeerFrame: sink1.on})
	t0.Start()
	t1.Start()
	return t0, t1
}

func TestTransportPeerRoundTrip(t *testing.T) {
	var sink0, sink1 frameSink
	t0, t1 := newPair(t, &sink0, &sink1)
	defer t0.Close()
	defer t1.Close()

	t0.Send(1, []byte("hello from 0"))
	t1.Send(0, []byte("hello from 1"))
	waitFor(t, 2*time.Second, func() bool {
		return len(sink1.snapshot()) == 1 && len(sink0.snapshot()) == 1
	})
	if got := sink1.snapshot()[0]; got != "hello from 0" {
		t.Fatalf("node 1 got %q", got)
	}
	if got := sink0.snapshot()[0]; got != "hello from 1" {
		t.Fatalf("node 0 got %q", got)
	}
	if s := t0.Stats(); s.Sent != 1 {
		t.Fatalf("t0 sent = %d, want 1", s.Sent)
	}
}

func TestTransportOrderedDelivery(t *testing.T) {
	var sink0, sink1 frameSink
	t0, t1 := newPair(t, &sink0, &sink1)
	defer t0.Close()
	defer t1.Close()

	const n = 100
	for i := 0; i < n; i++ {
		t0.Send(1, []byte(fmt.Sprintf("frame-%03d", i)))
	}
	waitFor(t, 2*time.Second, func() bool { return len(sink1.snapshot()) == n })
	for i, f := range sink1.snapshot() {
		if want := fmt.Sprintf("frame-%03d", i); f != want {
			t.Fatalf("frame %d: got %q, want %q (per-peer order must hold)", i, f, want)
		}
	}
}

func TestTransportReconnect(t *testing.T) {
	var sink0, sink1 frameSink
	ln0, addr0, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	ln1, addr1, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[types.NodeID]string{0: addr0, 1: addr1}
	t0 := NewTransport(ln0, TransportConfig{Self: 0, Addrs: addrs, OnPeerFrame: sink0.on})
	t0.Start()
	defer t0.Close()

	t1 := NewTransport(ln1, TransportConfig{Self: 1, Addrs: addrs, OnPeerFrame: sink1.on})
	t1.Start()

	t0.Send(1, []byte("before restart"))
	waitFor(t, 2*time.Second, func() bool { return len(sink1.snapshot()) == 1 })

	// Kill peer 1 and bring a new transport up on the same address.
	t1.Close()
	var ln1b net.Listener
	waitFor(t, 2*time.Second, func() bool {
		ln1b, err = net.Listen("tcp", addr1)
		return err == nil
	})
	var sink1b frameSink
	t1b := NewTransport(ln1b, TransportConfig{Self: 1, Addrs: addrs, OnPeerFrame: sink1b.on})
	t1b.Start()
	defer t1b.Close()

	// Keep sending until the writer notices the dead conn, re-dials,
	// and frames land on the reborn peer.
	waitFor(t, 5*time.Second, func() bool {
		t0.Send(1, []byte("after restart"))
		return len(sink1b.snapshot()) > 0
	})
	if s := t0.Stats(); s.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", s.Reconnects)
	}
}

func TestTransportDropsOnUnknownPeerAndOversize(t *testing.T) {
	var sink frameSink
	ln, addr, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(ln, TransportConfig{
		Self: 0, Addrs: map[types.NodeID]string{0: addr}, OnPeerFrame: sink.on,
	})
	tr.Start()
	defer tr.Close()

	tr.Send(9, []byte("no such peer"))
	tr.Send(0, []byte("to self goes nowhere"))
	tr.Send(9, make([]byte, DefaultMaxFrame+1))
	if s := tr.Stats(); s.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", s.Dropped)
	}
}

func TestTransportCloseIdempotent(t *testing.T) {
	var sink frameSink
	t0, t1 := newPair(t, &sink, &sink)
	t0.Close()
	t0.Close()
	t1.Close()
	// Sends after close drop without blocking or panicking.
	t0.Send(1, []byte("late"))
}

// acceptedConns counts the connections t has accepted and still holds
// (peer connections only, in a test that opens no client connection).
func acceptedConns(t *Transport) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

func TestTransportOneConnectionPerPair(t *testing.T) {
	const nodes, perPeer = 3, 50
	addrs := make(map[types.NodeID]string)
	lns := make([]net.Listener, nodes)
	for i := range lns {
		ln, addr, err := Listen()
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[types.NodeID(i)] = ln, addr
	}
	sinks := make([]frameSink, nodes)
	trs := make([]*Transport, nodes)
	for i := range trs {
		trs[i] = NewTransport(lns[i], TransportConfig{Self: types.NodeID(i), Addrs: addrs, OnPeerFrame: sinks[i].on})
		trs[i].Start()
		defer trs[i].Close()
	}
	for k := 0; k < perPeer; k++ {
		for i, tr := range trs {
			for j := range trs {
				if i != j {
					tr.Send(types.NodeID(j), []byte(fmt.Sprintf("%d-%03d", i, k)))
				}
			}
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		for i := range sinks {
			if len(sinks[i].snapshot()) != (nodes-1)*perPeer {
				return false
			}
		}
		return true
	})
	for i := range sinks {
		next := make(map[types.NodeID]int)
		sinks[i].mu.Lock()
		for n, f := range sinks[i].frames {
			from := sinks[i].froms[n]
			if want := fmt.Sprintf("%d-%03d", from, next[from]); f != want {
				t.Errorf("node %d: frame %d from %d is %q, want %q", i, n, from, f, want)
			}
			next[from]++
		}
		sinks[i].mu.Unlock()
		// Node i is the higher ID of exactly i pairs, so it accepted i
		// connections and dialed the rest.
		if got := acceptedConns(trs[i]); got != i {
			t.Errorf("node %d accepted %d peer connections, want %d", i, got, i)
		}
	}
}

func TestTransportLowerSideRestart(t *testing.T) {
	var sink0, sink1 frameSink
	t0, t1 := newPair(t, &sink0, &sink1)
	defer t1.Close()

	t1.Send(0, []byte("before restart"))
	waitFor(t, 2*time.Second, func() bool { return len(sink0.snapshot()) == 1 })

	// Kill node 0, the pair's dialer, and bring a new transport up on
	// the same address: it dials node 1, whose queued frames then flow.
	addr0 := t0.Addr()
	t0.Close()
	var ln0b net.Listener
	var err error
	waitFor(t, 2*time.Second, func() bool {
		ln0b, err = net.Listen("tcp", addr0)
		return err == nil
	})
	var sink0b frameSink
	t0b := NewTransport(ln0b, TransportConfig{Self: 0, Addrs: map[types.NodeID]string{0: addr0, 1: t1.Addr()}, OnPeerFrame: sink0b.on})
	t0b.Start()
	defer t0b.Close()

	waitFor(t, 5*time.Second, func() bool {
		t1.Send(0, []byte("after restart"))
		return len(sink0b.snapshot()) > 0
	})
	t0b.Send(1, []byte("from the new node 0"))
	waitFor(t, 2*time.Second, func() bool {
		got := sink1.snapshot()
		return len(got) > 0 && got[len(got)-1] == "from the new node 0"
	})
	if n := acceptedConns(t0b); n != 0 {
		t.Fatalf("the new node 0 accepted %d peer connections: node 1 dialed it", n)
	}
	if s := t1.Stats(); s.Reconnects != 0 {
		t.Fatalf("node 1 reconnects = %d, want 0: only the lower ID dials", s.Reconnects)
	}
}

func TestTransportHelloReadUnderItsOwnCap(t *testing.T) {
	ln, addr, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(ln, TransportConfig{Self: 0, Addrs: map[types.NodeID]string{0: addr}})
	tr.Start()
	defer tr.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The header of a 16 MB first frame, and nothing after it: a hello
	// is 9 bytes, so the server must refuse it at once, not wait for
	// the rest.
	if _, err := conn.Write([]byte{0x01, 0x00, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read = %v, want the connection closed within 1 s", err)
	}
}

// A reply is queued as it is and encoded on the connection's writer:
// Send allocates nothing, and the writer's one reused buffer frames
// replies of any length in turn.
func TestClientConnSendAllocatesNothing(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	cc := newClientConn(c1, bufio.NewReader(c1))
	defer cc.Close()
	resp := Response{ReqID: 7, Status: StatusOK, Leader: 1, Result: types.Value("42")}
	if n := testing.AllocsPerRun(100, func() {
		cc.Send(resp)
		<-cc.out
	}); n != 0 {
		t.Fatalf("ClientConn.Send costs %v allocations, want 0", n)
	}

	go cc.writeLoop()
	want := []Response{
		{ReqID: 1, Status: StatusOK, Leader: 1, Result: types.Value("a longer result first")},
		{ReqID: 2, Status: StatusNotLeader, Leader: -1},
		{ReqID: 3, Status: StatusOK, Leader: 1, Result: types.Value("7")},
	}
	for _, p := range want {
		if !cc.Send(p) {
			t.Fatal("Send refused a reply on an open connection")
		}
	}
	br := bufio.NewReader(c2)
	for _, w := range want {
		b, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResponse(b)
		if err != nil || got.ReqID != w.ReqID || got.Status != w.Status || got.Leader != w.Leader || string(got.Result) != string(w.Result) {
			t.Fatalf("the writer framed %+v (%v), want %+v", got, err, w)
		}
	}
}
