package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// rawClient is a client connection with no client library in front of
// it: the test writes request frames and reads responses itself.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := WriteFrame(conn, encodeHello(helloClient, 0)); err != nil {
		t.Fatal(err)
	}
	return &rawClient{conn: conn, br: bufio.NewReader(conn)}
}

// send writes every request in one write call.
func (c *rawClient) send(t *testing.T, reqs ...Request) {
	t.Helper()
	var buf bytes.Buffer
	for _, q := range reqs {
		WriteFrame(&buf, q.encode())
	}
	if _, err := c.conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func (c *rawClient) recv(t *testing.T) Response {
	t.Helper()
	payload, err := ReadFrame(c.br, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBurstIsFewerLogEntries writes N Incrs of one counter, each under a
// session of its own, in a single write to the leader: the server reads
// them as one burst and the group logs them as fewer than N entries —
// batches — while the counter moves by exactly N and every Incr is
// answered with its own value. On both backends.
func TestBurstIsFewerLogEntries(t *testing.T) {
	const n = 16
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) {
			servers, addrs := startCluster(t, 3, 1, backend, 13)
			lead := findLeader(t, servers, 0)
			g := servers[lead].grs[0]
			c := dialRaw(t, addrs[lead])
			// One Incr first: the leader has committed its election entry.
			c.send(t, Request{ReqID: 1, Client: 300_000, SeqNo: 1, Op: kvstore.Incr("burst", 1).Encode()})
			if resp := c.recv(t); resp.Status != StatusOK {
				t.Fatalf("warm-up Incr: %+v", resp)
			}
			before, _ := g.status()

			reqs := make([]Request, n)
			for i := range reqs {
				reqs[i] = Request{ReqID: uint64(100 + i), Client: types.ClientID(300_001 + i), SeqNo: 1,
					Op: kvstore.Incr("burst", 1).Encode()}
			}
			c.send(t, reqs...)
			var got []int
			for range reqs {
				resp := c.recv(t)
				if resp.Status != StatusOK {
					t.Fatalf("burst Incr answered %+v", resp)
				}
				v, _ := strconv.Atoi(string(resp.Result))
				got = append(got, v)
			}
			sort.Ints(got)
			for i, v := range got {
				if v != i+2 {
					t.Fatalf("the burst's Incrs returned %v, want 2..%d once each", got, n+1)
				}
			}
			after, _ := g.status()
			entries, ops := after.Commit-before.Commit, after.Ops-before.Ops
			t.Logf("%d Incrs in one write: %d log entries", n, entries)
			if ops != n || entries >= n || entries == 0 {
				t.Fatalf("%d Incrs applied as %d ops in %d log entries; want %d ops in fewer than %d entries", n, ops, entries, n, n)
			}
			for _, s := range servers {
				waitFor(t, 5*time.Second, func() bool {
					var v []byte
					s.InspectStore(0, func(st *shard.Store) { v, _ = st.KV().Get("burst") })
					return string(v) == strconv.Itoa(n+1)
				})
			}
		})
	}
}

// TestNegativeClientIDIsRefused: a request value starts with its client
// ID, so a negative one — the conf-change magic's, the batch magic's, or
// any other with the high bit set — is answered StatusBadRequest and
// reaches no log.
func TestNegativeClientIDIsRefused(t *testing.T) {
	servers, addrs := startCluster(t, 3, 1, BackendRaft, 19)
	lead := findLeader(t, servers, 0)
	confID := types.ClientID(binary.BigEndian.Uint64(snapshot.EncodeConfChange(snapshot.ConfChange{Op: snapshot.ConfAdd, Node: 7})))
	c := dialRaw(t, addrs[lead])
	c.send(t, Request{ReqID: 9, Client: 1, SeqNo: 1, Op: kvstore.Put("k", []byte("v")).Encode()})
	if resp := c.recv(t); resp.Status != StatusOK { // and the election's entry is applied
		t.Fatalf("warm-up Put: %+v", resp)
	}
	before, _ := servers[lead].grs[0].status()
	for i, id := range []types.ClientID{confID, -1} {
		c.send(t, Request{ReqID: uint64(i + 1), Client: id, SeqNo: 1, Op: kvstore.Put("k", []byte("v")).Encode()})
		if resp := c.recv(t); resp.Status != StatusBadRequest {
			t.Fatalf("client %d answered %+v, want StatusBadRequest", id, resp)
		}
	}
	if after, _ := servers[lead].grs[0].status(); after.Commit != before.Commit || after.Ops != before.Ops {
		t.Fatalf("refused requests moved the log: %+v -> %+v", before, after)
	}
}

func TestClientRefusesNegativeSessionBase(t *testing.T) {
	if _, err := NewClient(ClientConfig{Addrs: []string{"127.0.0.1:1"}, SessionBase: -5}); err == nil {
		t.Fatal("NewClient accepted a negative session base")
	}
}

// fakeServer accepts client connections and hands each request it reads
// to the test, which answers — or does not — through the connection.
type fakeServer struct {
	addr string
	reqs chan fakeReq
}

type fakeReq struct {
	Request
	conn net.Conn
}

func startFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	ln, addr, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{addr: addr, reqs: make(chan fakeReq, 64)}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := ReadFrame(br, DefaultMaxFrame); err != nil {
					return
				}
				for {
					payload, err := ReadFrame(br, DefaultMaxFrame)
					if err != nil {
						return
					}
					req, err := decodeRequest(payload)
					if err != nil {
						return
					}
					f.reqs <- fakeReq{req, conn}
				}
			}()
		}
	}()
	return f
}

func (f *fakeServer) answer(t *testing.T, r fakeReq, result string) {
	t.Helper()
	resp := Response{ReqID: r.ReqID, Status: StatusOK, Leader: 0, Result: types.Value(result)}
	if err := WriteFrame(r.conn, resp.encode()); err != nil {
		t.Fatal(err)
	}
}

func (f *fakeServer) next(t *testing.T) fakeReq {
	t.Helper()
	select {
	case r := <-f.reqs:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("no request reached the server")
		return fakeReq{}
	}
}

// A session keeps one reply channel for all its attempts. An attempt
// that times out leaves its reply to arrive during the next attempt of
// the same session: it must not answer that attempt, whose own reply
// then does.
func TestLateReplyNeverAnswersALaterAttempt(t *testing.T) {
	f := startFakeServer(t)
	cl, err := NewClient(ClientConfig{Addrs: []string{f.addr}, Shards: 1, SessionBase: 400_000,
		AttemptTimeout: 100 * time.Millisecond, Deadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan string, 1)
	go func() {
		v, err := cl.Do(kvstore.Incr("n", 1))
		done <- fmt.Sprintf("%s %v", v, err)
	}()
	first := f.next(t)  // left unanswered until it times out
	second := f.next(t) // the retry: same session and seqno, a new ReqID
	if second.Client != first.Client || second.SeqNo != first.SeqNo || second.ReqID == first.ReqID {
		t.Fatalf("retry %+v of %+v", second.Request, first.Request)
	}
	// The late reply precedes the fresh one on the connection: the reader
	// meets it while the second attempt waits on the session's channel.
	f.answer(t, first, "late")
	f.answer(t, second, "fresh")
	if got := <-done; got != "fresh <nil>" {
		t.Fatalf("Do returned %q, want the second attempt's reply", got)
	}
	// The session is reused: its next operation waits on the same channel
	// and is answered by its own reply.
	go func() {
		v, err := cl.Do(kvstore.Incr("n", 1))
		done <- fmt.Sprintf("%s %v", v, err)
	}()
	third := f.next(t)
	if third.Client != first.Client || third.SeqNo != first.SeqNo+1 {
		t.Fatalf("next operation %+v did not reuse session %d", third.Request, first.Client)
	}
	f.answer(t, third, "third")
	if got := <-done; got != "third <nil>" {
		t.Fatalf("Do returned %q, want the third attempt's reply", got)
	}
}

// A connection that dies wakes every attempt waiting on it at once, well
// before their timeout; they retry on a new connection and complete.
func TestDeadConnectionFailsEveryWaiter(t *testing.T) {
	f := startFakeServer(t)
	cl, err := NewClient(ClientConfig{Addrs: []string{f.addr}, Shards: 1, SessionBase: 410_000,
		AttemptTimeout: 30 * time.Second, Deadline: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const callers = 6
	start := time.Now()
	calls := make([]*Call, callers)
	for i := range calls {
		calls[i] = cl.Go(kvstore.Incr(fmt.Sprintf("k%d", i), 1))
	}
	var first []fakeReq
	for i := 0; i < callers; i++ {
		first = append(first, f.next(t))
	}
	for _, r := range first {
		r.conn.Close() // every request has reached the server: kill its connection
	}
	for i := 0; i < callers; i++ {
		r := f.next(t) // the retries, on a second connection
		f.answer(t, r, "ok")
	}
	for i, c := range calls {
		if v, err := c.Wait(); err != nil || string(v) != "ok" {
			t.Fatalf("call %d: %q, %v", i, v, err)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("the waiters took %v: the dead connection did not wake them", d)
	}
}
