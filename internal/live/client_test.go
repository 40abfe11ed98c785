package live

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// leaderGuess is the client's guess at shard sh's leader, by position.
func (c *Client) leaderGuess(sh int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.route.leader[sh]
}

// nodes returns the client's node IDs by position.
func (c *Client) nodes() []types.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.route.ids
}

// blockingConn is a client connection's socket whose every Write waits
// until the test releases it, with the error to return. Only Write and
// Close are called on it: no readLoop runs over it.
type blockingConn struct {
	net.Conn
	mu      sync.Mutex
	writes  [][]byte
	entered chan struct{} // one per Write, once its bytes are recorded
	release chan error
	closed  chan struct{}
	once    sync.Once
}

func newBlockingConn() *blockingConn {
	return &blockingConn{
		entered: make(chan struct{}, 16),
		release: make(chan error),
		closed:  make(chan struct{}),
	}
}

func (b *blockingConn) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.writes = append(b.writes, bytes.Clone(p))
	b.mu.Unlock()
	b.entered <- struct{}{}
	select {
	case err := <-b.release:
		if err != nil {
			return 0, err
		}
		return len(p), nil
	case <-b.closed:
		return 0, net.ErrClosed
	}
}

func (b *blockingConn) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

// requestsIn decodes one write's frames back into requests.
func requestsIn(t *testing.T, write []byte) []Request {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(write))
	var reqs []Request
	for {
		if _, err := br.Peek(1); err != nil {
			return reqs
		}
		payload, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("write %x: %v", write, err)
		}
		q, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("frame %x: %v", payload, err)
		}
		reqs = append(reqs, q)
	}
}

// While caller A's write is on the socket, callers B, C and D queue
// their frames and return without waiting; A's next round then writes
// all three, in order, in one Write.
func TestClientCombinesFramesBehindAWrite(t *testing.T) {
	bc := newBlockingConn()
	var stats clientStats
	cn := newCConn(bc, &stats)
	errA := make(chan error, 1)
	go func() { errA <- cn.send(Request{ReqID: 1, Op: types.Value("a")}) }()
	<-bc.entered

	done := make(chan error, 3)
	go func() {
		for id := uint64(2); id <= 4; id++ {
			done <- cn.send(Request{ReqID: id, Op: types.Value("bcd")})
		}
	}()
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("queued caller: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a caller waited for another caller's write")
		}
	}

	bc.release <- nil
	<-bc.entered
	bc.release <- nil
	if err := <-errA; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if len(bc.writes) != 2 {
		t.Fatalf("%d writes, want 2", len(bc.writes))
	}
	for i, want := range [][]uint64{{1}, {2, 3, 4}} {
		var got []uint64
		for _, q := range requestsIn(t, bc.writes[i]) {
			got = append(got, q.ReqID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("write %d carries requests %v, want %v", i, got, want)
		}
	}
	if st := (ClientStats{stats.frames.Load(), stats.writes.Load()}); st != (ClientStats{Frames: 4, Writes: 2}) {
		t.Fatalf("stats %+v, want 4 frames in 2 writes", st)
	}
}

// A failed write fails its writer's attempt, which kills the
// connection; every attempt whose frame was queued behind it wakes on
// dead at once, not at its attempt timeout.
func TestClientFailedWriteWakesEveryWaiter(t *testing.T) {
	c, err := NewClient(ClientConfig{Addrs: []string{"127.0.0.1:1"}, AttemptTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	bc := newBlockingConn()
	cn := newCConn(bc, &c.stats)
	c.conns[0] = cn

	errs := make(chan error, 4)
	run := func() {
		sess := c.takeSession()
		sess.seq++
		_, err := c.attempt(0, Request{Client: sess.id, SeqNo: sess.seq, Op: types.Value("x")}, sess)
		errs <- err
	}
	go run()
	<-bc.entered
	for i := 0; i < 3; i++ {
		go run()
	}
	waitFor(t, 5*time.Second, func() bool {
		cn.mu.Lock()
		defer cn.mu.Unlock()
		return len(cn.pending) == 4
	})
	bc.release <- errors.New("broken pipe")
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("an attempt succeeded over a failed write")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an attempt queued behind a failed write still waits")
		}
	}
	if !cn.isDead() {
		t.Fatal("the failed write left the connection alive")
	}
	if len(bc.writes) != 1 {
		t.Fatalf("%d writes, want only the one that failed", len(bc.writes))
	}
}

// recordingConn takes every write whole.
type recordingConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Write(p)
}

// N callers each send M frames at once: every frame reaches the socket
// by the time its sender and every writer have returned, and each
// caller's frames arrive in the order it sent them.
func TestClientCombinedWritesStrandNothing(t *testing.T) {
	const callers, frames = 8, 200
	rc := &recordingConn{}
	var stats clientStats
	cn := newCConn(rc, &stats)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := 1; m <= frames; m++ {
				if err := cn.send(Request{Client: types.ClientID(g), SeqNo: uint64(m), Op: types.Value("op")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cn.wmu.Lock()
	if len(cn.out) != 0 || cn.writing {
		t.Fatalf("%d bytes stranded in the queue (writing=%v)", len(cn.out), cn.writing)
	}
	cn.wmu.Unlock()

	next := make([]uint64, callers)
	reqs := requestsIn(t, rc.buf.Bytes())
	for _, q := range reqs {
		if next[q.Client]++; q.SeqNo != next[q.Client] {
			t.Fatalf("caller %d: frame %d arrived where %d was due", q.Client, q.SeqNo, next[q.Client])
		}
	}
	if len(reqs) != callers*frames {
		t.Fatalf("%d frames arrived, want %d", len(reqs), callers*frames)
	}
	if f, w := stats.frames.Load(), stats.writes.Load(); f != callers*frames || w == 0 || w > f {
		t.Fatalf("stats: %d frames in %d writes", f, w)
	}
}

// stubServer answers every request on ln with answer's response.
func stubServer(t *testing.T, answer func(Request) Response) string {
	t.Helper()
	ln, addr, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := ReadFrame(br, helloLen); err != nil {
					return
				}
				for {
					payload, err := ReadFrame(br, DefaultMaxFrame)
					if err != nil {
						return
					}
					q, err := decodeRequest(payload)
					if err != nil {
						return
					}
					if WriteFrame(conn, answer(q).appendTo(nil)) != nil {
						return
					}
				}
			}()
		}
	}()
	return addr
}

// A NotLeader reply that names a node the client was not given carries
// that node's address, and the client follows it there: a client given
// only node 0 reaches leader 9.
func TestClientAdoptsALeaderItWasNotGiven(t *testing.T) {
	leader := stubServer(t, func(q Request) Response {
		return Response{ReqID: q.ReqID, Status: StatusOK, Leader: 9, Result: types.Value("led")}
	})
	follower := stubServer(t, func(q Request) Response {
		return Response{ReqID: q.ReqID, Status: StatusNotLeader, Leader: 9, Result: types.Value(leader)}
	})
	cl, err := NewClient(ClientConfig{
		Addrs: []string{follower}, Shards: 1, SessionBase: 150_000,
		AttemptTimeout: time.Second, Deadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.Do(kvstore.Incr("k", 1))
	if err != nil || string(got) != "led" {
		t.Fatalf("Do through a hint to an unknown node: %q, %v", got, err)
	}
	if ids := cl.nodes(); len(ids) != 2 || ids[1] != 9 {
		t.Fatalf("client nodes %v, want node 9 adopted at position 1", ids)
	}
	if guess := cl.leaderGuess(0); guess != 1 {
		t.Fatalf("leader cache holds position %d, want 1 (node 9's)", guess)
	}
}

// The router's rules, one outcome at a time: an answer from the leader
// becomes the shard's guess; a NotLeader reply redirects at once to a
// fresh hint, by node ID or, for a node the router was not given, by
// the address it carries, and otherwise moves to the next node after a
// backoff; Unavailable and a lost attempt drop the guess and back off.
func TestClientRouter(t *testing.T) {
	r := newRouter([]string{"a:1", "b:2"}, []types.NodeID{4, 7}, 2)
	if got := r.pick(r.leader[1], 3); got != 1 {
		t.Fatalf("pick with no guess, attempt 3: %d, want the attempt's turn 1", got)
	}
	steps := []struct {
		name     string
		node     int
		resp     Response
		lost     bool
		next     int
		backoff  bool
		guess    int // shard 1's guess after it
		position int // where node 9 sits, -1 unknown
	}{
		{"ok", 1, Response{Status: StatusOK}, false, 1, false, 1, -1},
		{"lost", 1, Response{}, true, -1, true, -1, -1},
		{"hint by id", 0, Response{Status: StatusNotLeader, Leader: 7}, false, 1, false, -1, -1},
		{"hint by address", 1, Response{Status: StatusNotLeader, Leader: 9, Result: types.Value("c:3")}, false, 2, false, -1, 2},
		{"stale hint", 2, Response{Status: StatusNotLeader, Leader: 9}, false, 0, true, -1, 2},
		{"no hint", 0, Response{Status: StatusNotLeader, Leader: -1}, false, 1, true, -1, 2},
		{"ok again", 2, Response{Status: StatusOK}, false, 2, false, 2, 2},
		{"unavailable", 2, Response{Status: StatusUnavailable}, false, -1, true, -1, 2},
	}
	for _, s := range steps {
		next, backoff := r.next(1, s.node, s.resp, s.lost)
		if next != s.next || backoff != s.backoff || r.leader[1] != s.guess || slices.Index(r.ids, 9) != s.position {
			t.Fatalf("%s: next %d backoff %v guess %d node 9 at %d; want %d %v %d %d",
				s.name, next, backoff, r.leader[1], slices.Index(r.ids, 9), s.next, s.backoff, s.guess, s.position)
		}
	}
	if r.addrs[2] != "c:3" || r.leader[0] != -1 {
		t.Fatalf("addrs %v, shard 0's guess %d", r.addrs, r.leader[0])
	}
	r.leader = []int{2, 2}
	r.forget(2)
	if r.leader[0] != -1 || r.leader[1] != -1 {
		t.Fatalf("guesses %v after node 2's connection died, want none", r.leader)
	}
}
