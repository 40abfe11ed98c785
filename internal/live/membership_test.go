package live

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// adminStatus fetches and decodes one node's admin status.
func adminStatus(t *testing.T, addr string) (NodeStatus, bool) {
	t.Helper()
	resp, err := AdminCall(addr, AdminStatusOp(), 2*time.Second)
	if err != nil || resp.Status != StatusOK {
		return NodeStatus{}, false
	}
	var st NodeStatus
	if err := json.Unmarshal(resp.Result, &st); err != nil {
		t.Fatalf("status from %s undecodable: %v", addr, err)
	}
	return st, true
}

// TestClusterMembershipJoinViaSnapshot grows a compacting 3-node
// cluster to 4 on each backend: the survivors prune their logs below the
// joiner's needs, so the fresh node can only catch up through a chunked
// snapshot transfer of at least 8 chunks; then the original node 0 is
// voted out and killed, and the reshaped cluster keeps committing.
func TestClusterMembershipJoinViaSnapshot(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) { testMembershipJoinViaSnapshot(t, backend) })
	}
}

// joinable starts a 3-node cluster of one group on backend, compacting
// every `every` applied slots (0: never), and a client of it. join
// starts node 3 as a passive joiner, votes it in and returns its
// address; servers holds every node started, by ID.
func joinable(t *testing.T, backend string, every int) (cl *Client, servers map[types.NodeID]*Server, addrs map[types.NodeID]string, join func() string) {
	t.Helper()
	lns := make([]net.Listener, 3)
	addrs = make(map[types.NodeID]string, 4)
	for i := 0; i < 3; i++ {
		ln, addr, err := Listen()
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[types.NodeID(i)] = ln, addr
	}
	servers = make(map[types.NodeID]*Server)
	mk := func(id types.NodeID, ln net.Listener, join bool) {
		srv, err := NewServerOn(ln, ServerConfig{
			Self: id, Addrs: addrs, Shards: 1, Backend: backend,
			TickEvery: time.Millisecond, Seed: 21, Join: join, SnapshotEvery: every,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[id] = srv
		srv.Start()
	}
	for i := 0; i < 3; i++ {
		mk(types.NodeID(i), lns[i], false)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	})

	cl, err := NewClient(ClientConfig{
		Addrs: []string{addrs[0], addrs[1], addrs[2]}, Shards: 1, SessionBase: 110_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	join = func() string {
		t.Helper()
		ln3, addr3, err := Listen()
		if err != nil {
			t.Fatal(err)
		}
		addrs[3] = addr3
		mk(3, ln3, true)
		submitted := 0
		for i := 0; i < 3; i++ {
			resp, err := AdminCall(addrs[types.NodeID(i)], AdminAddNodeOp(3, addr3), 2*time.Second)
			if err != nil || resp.Status != StatusOK {
				continue
			}
			var res AdminConfResult
			if err := json.Unmarshal(resp.Result, &res); err != nil {
				t.Fatalf("add-node result undecodable: %v", err)
			}
			submitted += res.Submitted
		}
		if submitted == 0 {
			t.Fatal("no node accepted the add-node submission")
		}
		return addr3
	}
	return cl, servers, addrs, join
}

func testMembershipJoinViaSnapshot(t *testing.T, backend string) {
	const every = 8
	big := strings.Repeat("x", snapshot.ChunkSize/4) // 5*every of them span 10 chunks
	cl, servers, addrs, join := joinable(t, backend, every)
	put := func(k, v string) {
		t.Helper()
		if _, err := cl.Do(kvstore.Put(k, []byte(v))); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	for i := 0; i < 5*every; i++ {
		put(fmt.Sprintf("pre-%02d", i), big)
	}

	// Every original node must have compacted before the join, so entry
	// replay cannot cover the joiner — only a snapshot can.
	waitFor(t, 10*time.Second, func() bool {
		for i := 0; i < 3; i++ {
			st, ok := adminStatus(t, addrs[types.NodeID(i)])
			if !ok || len(st.Groups) != 1 || st.Groups[0].SnapBytes < 8*snapshot.ChunkSize {
				return false
			}
		}
		return true
	})

	// Bring up node 3 as a passive joiner and vote it in.
	addr3 := join()

	// The joiner must install a snapshot, adopt the 4-member config, and
	// reach a live frontier.
	waitFor(t, 15*time.Second, func() bool {
		st, ok := adminStatus(t, addr3)
		if !ok || len(st.Groups) != 1 {
			return false
		}
		g := st.Groups[0]
		return g.Installs >= 1 && g.SnapBytes >= 8*snapshot.ChunkSize && len(g.Members) == 4 && g.Commit > 0
	})

	for i := 0; i < 2*every; i++ {
		put(fmt.Sprintf("post-%02d", i), "y")
	}

	// Once traffic stops, the joiner converges to the leader's exact
	// committed KV state (same frontier, same digest).
	waitFor(t, 15*time.Second, func() bool {
		a, okA := adminStatus(t, addrs[0])
		b, okB := adminStatus(t, addr3)
		if !okA || !okB {
			return false
		}
		ga, gb := a.Groups[0], b.Groups[0]
		return ga.Commit == gb.Commit && ga.Digest == gb.Digest
	})

	// Vote node 0 out, then kill it: the 3 survivors (1,2,3) must keep
	// serving, which proves the joiner is a full replacement member.
	waitFor(t, 10*time.Second, func() bool {
		n := 0
		for id := types.NodeID(0); id <= 3; id++ {
			resp, err := AdminCall(addrs[id], AdminRemoveNodeOp(0), 2*time.Second)
			if err != nil || resp.Status != StatusOK {
				continue
			}
			var res AdminConfResult
			if json.Unmarshal(resp.Result, &res) == nil {
				n += res.Submitted
			}
		}
		return n > 0
	})
	waitFor(t, 10*time.Second, func() bool {
		st, ok := adminStatus(t, addrs[1])
		return ok && len(st.Groups) == 1 && len(st.Groups[0].Members) == 3
	})
	servers[0].Close()
	servers[0] = nil

	for i := 0; i < every; i++ {
		put(fmt.Sprintf("final-%02d", i), "z")
	}
}

// TestJoinerCatchesUpUnderWrites adds a node to a group while a client
// keeps writing and every replica compacts each 8 slots: the joiner
// takes a snapshot of more than 1 MiB while its sender would compact
// several times, which must not start the transfer over.
func TestJoinerCatchesUpUnderWrites(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) { testJoinUnderWrites(t, backend) })
	}
}

func testJoinUnderWrites(t *testing.T, backend string) {
	const every = 8
	cl, _, addrs, join := joinable(t, backend, every)
	val := make([]byte, 64<<10)
	for i := 0; i < 3*every; i++ {
		if _, err := cl.Do(kvstore.Put(fmt.Sprintf("big-%02d", i), val)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		for i := 0; i < 3; i++ {
			st, ok := adminStatus(t, addrs[types.NodeID(i)])
			if !ok || len(st.Groups) != 1 || st.Groups[0].SnapBytes < 1<<20 {
				return false
			}
		}
		return true
	})

	// The writer starts with the join, which returns before the joiner
	// is voted in, and knows the joiner's address: once caught up it may
	// win an election.
	addr3 := join()
	w, err := NewClient(ClientConfig{
		Addrs: []string{addrs[0], addrs[1], addrs[2], addr3}, Shards: 1, SessionBase: 120_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	stop, wrote := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				wrote <- nil
				return
			default:
			}
			if _, err := w.Do(kvstore.Put(fmt.Sprintf("w-%02d", i%64), []byte("v"))); err != nil {
				wrote <- err
				return
			}
		}
	}()
	// Past node 0's frontier once the writes began, with them still
	// running: the joiner installed a snapshot taken since.
	st, ok := adminStatus(t, addrs[0])
	if !ok || len(st.Groups) != 1 {
		t.Fatal("node 0 has no status")
	}
	target := st.Groups[0].Commit
	waitFor(t, 15*time.Second, func() bool {
		st, ok := adminStatus(t, addr3)
		return ok && len(st.Groups) == 1 && st.Groups[0].Installs >= 1 && st.Groups[0].Commit >= target
	})
	close(stop)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, func() bool {
		a, okA := adminStatus(t, addrs[0])
		b, okB := adminStatus(t, addr3)
		if !okA || !okB || len(a.Groups) != 1 || len(b.Groups) != 1 {
			return false
		}
		ga, gb := a.Groups[0], b.Groups[0]
		return ga.Commit == gb.Commit && ga.Digest == gb.Digest
	})
}

// TestJoinerCatchesUpPastTheFrameLimit adds a node to a cluster whose
// uncompacted log holds 20 MiB of values, more than one frame may carry
// (DefaultMaxFrame). Catch-up batches stop at snapshot.BatchBytes, so
// none is dropped as oversize and the joiner reaches the leader's state.
func TestJoinerCatchesUpPastTheFrameLimit(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) {
			cl, _, addrs, join := joinable(t, backend, 0)
			val := make([]byte, 1<<20)
			for i := 0; i < 20; i++ {
				if _, err := cl.Do(kvstore.Put(fmt.Sprintf("big-%02d", i), val)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			addr3 := join()
			waitFor(t, 15*time.Second, func() bool {
				a, okA := adminStatus(t, addrs[0])
				b, okB := adminStatus(t, addr3)
				if !okA || !okB || len(a.Groups) != 1 || len(b.Groups) != 1 {
					return false
				}
				ga, gb := a.Groups[0], b.Groups[0]
				return gb.Commit > 20 && ga.Commit == gb.Commit && ga.Digest == gb.Digest
			})
		})
	}
}

// TestClientLeaderCacheInvalidatedOnConnDeath pins the client's
// all-shard leader-cache invalidation: killing the cached leader's
// server clears the guess via the dying connection, without any request
// having to fail first.
func TestClientLeaderCacheInvalidatedOnConnDeath(t *testing.T) {
	servers, addrList := startCluster(t, 3, 2, BackendRaft, 17)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: 2, SessionBase: 130_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Touch both shards so each caches its leader.
	for i := 0; i < 8; i++ {
		if _, err := cl.Do(kvstore.Put(fmt.Sprintf("warm-%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	cached := cl.leaderGuess(0)
	if cached < 0 {
		t.Fatal("shard 0 has no cached leader after successful writes")
	}

	servers[cached].Close()
	servers[cached] = nil

	// The dying connection must clear every guess pointing at the dead
	// node — no new request issued.
	waitFor(t, 5*time.Second, func() bool {
		for sh := 0; sh < 2; sh++ {
			if cl.leaderGuess(sh) == cached {
				return false
			}
		}
		return true
	})

	// And the very next operation fails over cleanly.
	if _, err := cl.Do(kvstore.Put("after-kill", []byte("v"))); err != nil {
		t.Fatalf("put after leader kill: %v", err)
	}
}
