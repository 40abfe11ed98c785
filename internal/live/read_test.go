package live

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/types"
)

// A Get is confirmed, not logged: gets add nothing to the log, and a
// stream of them across the close of the leader's server never reads a
// counter below a value an Incr was acknowledged with before the Get
// began.
func TestReadsLeaveTheLogAndNeverGoBackAcrossALeaderClose(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) {
			servers, addrList := startCluster(t, 3, 1, backend, 13)
			cl, err := NewClient(ClientConfig{
				Addrs: addrList, Shards: 1, SessionBase: 140_000,
				AttemptTimeout: time.Second, Deadline: 20 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Do(kvstore.Incr("n", 1)); err != nil {
				t.Fatal(err)
			}
			lead := findLeader(t, servers, 0)
			commit := func() uint64 {
				st, ok := adminStatus(t, addrList[lead])
				if !ok {
					t.Fatal("no status from the leader")
				}
				return st.Groups[0].Commit
			}
			before := commit()
			for i := 0; i < 50; i++ {
				if got, err := cl.Do(kvstore.Get("n")); err != nil || string(got) != "1" {
					t.Fatalf("get %d: %q, %v", i, got, err)
				}
			}
			if after := commit(); after != before {
				t.Fatalf("50 gets moved the leader's applied frontier %d -> %d", before, after)
			}

			var acked atomic.Int64 // the highest value an Incr was acknowledged with
			acked.Store(1)
			stop := make(chan struct{})
			fail := make(chan string, 4)
			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := cl.Do(kvstore.Incr("n", 1))
					if err != nil {
						fail <- fmt.Sprintf("incr: %v", err)
						return
					}
					v, _ := strconv.ParseInt(string(res), 10, 64)
					acked.Store(max(acked.Load(), v))
				}
			}()
			reads := make([]int, 2)
			for r := range reads {
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						lo := acked.Load()
						res, err := cl.Do(kvstore.Get("n"))
						if err != nil {
							fail <- fmt.Sprintf("get: %v", err)
							return
						}
						if v, _ := strconv.ParseInt(string(res), 10, 64); v < lo {
							fail <- fmt.Sprintf("get read n = %d after an incr was acknowledged with %d", v, lo)
							return
						}
						reads[r]++
					}
				}()
			}
			time.Sleep(200 * time.Millisecond)
			servers[lead].Close()
			servers[lead] = nil
			time.Sleep(time.Second)
			close(stop)
			wg.Wait()
			select {
			case msg := <-fail:
				t.Fatal(msg)
			default:
			}
			next := findLeader(t, servers, 0)
			served := servers[next].met.readsServed.Load()
			t.Logf("%v reads by each reader; the new leader served %d", reads, served)
			if served == 0 {
				t.Fatal("the new leader served no read")
			}
		})
	}
}

// A read the module drops — its node stopped leading before a quorum
// confirmed it — is answered StatusNotLeader with the new leader at
// once, not left to the client's attempt timeout. And what nobody could
// receive is counted: a response a closed client connection refused, a
// peer frame that does not decode.
func TestDroppedReadIsRedirectedAtOnce(t *testing.T) {
	ln, addr, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerOn(ln, ServerConfig{Self: 0, Addrs: map[types.NodeID]string{0: addr}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Node 0 of a three-node group whose peers never answer: it leads on
	// node 1's vote, and its read probes go nowhere.
	mod := raft.New(0, raft.Config{Peers: []types.NodeID{0, 1, 2}})
	g := newSMRGroup[raft.Message](s, 0, mod, RaftCodec{}, raft.Dest)
	defer g.close()
	for mod.Term() == 0 {
		g.node.CallWait(mod.Tick)
	}
	g.node.Deliver(raft.Message{Kind: raft.MsgVote, From: 1, To: 0, Term: mod.Term(), Granted: true})
	if !mod.IsLeader() {
		t.Fatal("node 0 does not lead")
	}

	c1, c2 := net.Pipe()
	defer c2.Close()
	cc := newClientConn(c1, bufio.NewReader(c1))
	g.serve(cc, []clientOp{{Request{ReqID: 5, Client: 1, SeqNo: 1, Op: kvstore.Get("k").Encode()}, true}})
	select {
	case resp := <-cc.out:
		t.Fatalf("an unconfirmed read was answered: %+v", resp)
	case <-time.After(20 * time.Millisecond):
	}
	g.node.Deliver(raft.Message{Kind: raft.MsgAppend, From: 2, To: 0, Term: mod.Term() + 1})
	select {
	case resp := <-cc.out:
		if resp.ReqID != 5 || resp.Status != StatusNotLeader || resp.Leader != 2 {
			t.Fatalf("dropped read answered %+v, want StatusNotLeader naming node 2", resp)
		}
	case <-time.After(time.Second):
		t.Fatal("the dropped read was not answered")
	}

	cc.Close()
	g.serve(cc, []clientOp{{Request{ReqID: 6, Client: 1, SeqNo: 2, Op: kvstore.Get("k").Encode()}, true}})
	s.onPeerFrame(1, []byte{0, 0, 0, 0, 0xff})
	s.onPeerFrame(1, []byte{0, 0})
	m := s.met.snapshot(s.tr)
	if m.Reads["dropped_not_leader"] != 1 || m.ReplyDropped != 1 || m.PeerDecodeErrors != 2 {
		t.Fatalf("reads %+v, reply_dropped %d, peer_decode_errors %d; want 1 dropped read, 1 refused reply, 2 bad frames",
			m.Reads, m.ReplyDropped, m.PeerDecodeErrors)
	}
}
