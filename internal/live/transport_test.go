package live

import (
	"fmt"
	"net"
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
