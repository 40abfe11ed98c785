package live

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/types"
)

// startCluster brings up n live servers on loopback ports and returns
// them with the client-facing address list (index = node ID).
func startCluster(t *testing.T, n, shards int, backend string, seed uint64) ([]*Server, []string) {
	t.Helper()
	return startClusterWith(t, n, ServerConfig{
		Shards: shards, Backend: backend, TickEvery: time.Millisecond, Seed: seed,
	}, nil)
}

// startClusterWith is startCluster over a config template (Self and
// Addrs are filled in per node); only the nodes in campaigners — all
// of them when nil — start able to campaign, the rest passive (Join).
func startClusterWith(t *testing.T, n int, tmpl ServerConfig, campaigners map[int]bool) ([]*Server, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make(map[types.NodeID]string, n)
	addrList := make([]string, n)
	for i := 0; i < n; i++ {
		ln, addr, err := Listen()
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[types.NodeID(i)] = addr
		addrList[i] = addr
	}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		cfg := tmpl
		cfg.Self, cfg.Addrs = types.NodeID(i), addrs
		cfg.Join = campaigners != nil && !campaigners[i]
		srv, err := NewServerOn(lns[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		srv.Start()
	}
	t.Cleanup(func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	})
	return servers, addrList
}

// sameKV reports whether every server holds the same KV contents for
// shard sh. The snapshot's first 8 bytes, the applied counter, are
// skipped: leader no-ops inflate it differently per node.
func sameKV(sh int, servers ...*Server) bool {
	first, ok := servers[0].SnapshotKV(sh)
	if !ok || len(first) < 8 {
		return false
	}
	for _, s := range servers[1:] {
		if snap, ok := s.SnapshotKV(sh); !ok || len(snap) < 8 || !bytes.Equal(first[8:], snap[8:]) {
			return false
		}
	}
	return true
}

// findLeader polls until some running server claims leadership of sh.
func findLeader(t *testing.T, servers []*Server, sh int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i, s := range servers {
			if s == nil {
				continue
			}
			if isLead, _, ok := s.Leader(sh); ok && isLead {
				return i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no leader emerged for shard %d", sh)
	return -1
}

// TestClusterSmoke commits through the client library against a 3-node
// live raft cluster, kills the shard-0 leader, and keeps committing.
func TestClusterSmoke(t *testing.T) {
	servers, addrList := startCluster(t, 3, 2, BackendRaft, 42)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: 2, SessionBase: 50_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const before = 40
	for i := 0; i < before; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if _, err := cl.Do(kvstore.Put(key, []byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}

	// Kill the shard-0 leader; the survivors must elect and keep serving.
	dead := findLeader(t, servers, 0)
	servers[dead].Close()
	servers[dead] = nil

	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("after-%02d", i)
		if _, err := cl.Do(kvstore.Put(key, []byte("post-failover"))); err != nil {
			t.Fatalf("put %s after failover: %v", key, err)
		}
	}

	// Reads go through consensus too, so they see every prior write.
	for i := 0; i < before; i += 7 {
		key := fmt.Sprintf("key-%02d", i)
		got, err := cl.Do(kvstore.Get(key))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if want := fmt.Sprintf("v%d", i); string(got) != want {
			t.Fatalf("get %s = %q, want %q", key, got, want)
		}
	}

	// The two survivors must converge to identical per-shard KV state.
	var sA, sB *Server
	for _, s := range servers {
		if s == nil {
			continue
		}
		if sA == nil {
			sA = s
		} else {
			sB = s
		}
	}
	for sh := 0; sh < 2; sh++ {
		waitFor(t, 10*time.Second, func() bool { return sameKV(sh, sA, sB) })
	}

	// Metrics sanity: the surviving nodes committed real operations.
	var committed uint64
	for _, s := range servers {
		if s != nil {
			committed += s.Metrics().Committed()
		}
	}
	if committed == 0 {
		t.Fatal("no server recorded committed operations")
	}
	if sA.TransportStats().Sent == 0 {
		t.Fatal("no peer frames were ever sent")
	}
}

// TestClusterPipelining drives many concurrent in-flight operations
// through one client; each holds a session of its own while it runs,
// which keeps them all exactly-once.
func TestClusterPipelining(t *testing.T) {
	_, addrList := startCluster(t, 3, 2, BackendRaft, 7)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: 2, SessionBase: 90_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 32
	calls := make([]*Call, n)
	for i := 0; i < n; i++ {
		calls[i] = cl.Go(kvstore.Incr("counter", 1))
	}
	for i, c := range calls {
		if _, err := c.Wait(); err != nil {
			t.Fatalf("pipelined op %d: %v", i, err)
		}
	}
	got, err := cl.Do(kvstore.Get("counter"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != fmt.Sprint(n) {
		t.Fatalf("counter = %q, want %d (retries must not double-apply)", got, n)
	}
}

// groupSessions polls every node's admin status until all of them have
// applied the same frontier on every group, and returns one node's
// groups: the session table and the last snapshot as the cluster agrees
// on them.
func groupSessions(t *testing.T, addrs []string) []GroupStatus {
	t.Helper()
	var groups []GroupStatus
	waitFor(t, 10*time.Second, func() bool {
		for i, addr := range addrs {
			st, ok := adminStatus(t, addr)
			if !ok {
				return false
			}
			if i == 0 {
				groups = st.Groups
				continue
			}
			for sh, g := range st.Groups {
				if g.Commit != groups[sh].Commit || g.Sessions != groups[sh].Sessions {
					return false
				}
			}
		}
		return true
	})
	return groups
}

// TestClientSessionWindow pins what a client costs the cluster: one
// dedup entry per group for each operation it ever had in flight at
// once, not one per operation. Two thousand sequential operations leave
// one session on each group, K concurrent callers at most K, the
// snapshots that carry the table stay the size of the store, and the
// executors of a live group keep no apply history.
func TestClientSessionWindow(t *testing.T) {
	const every = 128
	cluster := func(t *testing.T, seed uint64) ([]*Server, []string) {
		return startClusterWith(t, 3, ServerConfig{
			Shards: 2, Backend: BackendRaft, TickEvery: time.Millisecond, Seed: seed, SnapshotEvery: every,
		}, nil)
	}
	client := func(t *testing.T, addrs []string, base types.ClientID) *Client {
		cl, err := NewClient(ClientConfig{
			Addrs: addrs, Shards: 2, SessionBase: base,
			AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}

	t.Run("sequential", func(t *testing.T) {
		servers, addrs := cluster(t, 31)
		cl := client(t, addrs, 150_000)
		const ops, keys = 2000, 16
		var early []GroupStatus
		for i := 0; i < ops; i++ {
			if _, err := cl.Do(kvstore.Incr(fmt.Sprintf("seq-%d", i%keys), 1)); err != nil {
				t.Fatalf("incr %d: %v", i, err)
			}
			if i == ops/4 {
				early = groupSessions(t, addrs)
			}
		}
		for sh, g := range groupSessions(t, addrs) {
			if g.Commit < ops/4 {
				t.Fatalf("shard %d applied %d slots: the keys did not spread over both groups", sh, g.Commit)
			}
			if g.Sessions != 1 {
				t.Errorf("shard %d holds %d sessions after %d sequential operations, want 1", sh, g.Sessions, ops)
			}
			// The counters gain digits; the table gains nothing.
			if g.SnapBytes == 0 || g.SnapBytes > early[sh].SnapBytes+2*keys {
				t.Errorf("shard %d: snapshot of %d bytes, %d a quarter of the way in", sh, g.SnapBytes, early[sh].SnapBytes)
			}
		}
		for i, s := range servers {
			for sh, hg := range s.grs {
				g := hg.(*smrGroup[raft.Message])
				g.node.CallWait(func() {
					if h := g.rep.Exec().Applied(); h != nil {
						t.Errorf("node %d shard %d keeps an apply history of %d slots", i, sh, len(h))
					}
				})
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		_, addrs := cluster(t, 37)
		cl := client(t, addrs, 160_000)
		const callers, each = 6, 150
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := cl.Do(kvstore.Incr(fmt.Sprintf("par-%d", (w+i)%8), 1)); err != nil {
						t.Errorf("caller %d incr %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for sh, g := range groupSessions(t, addrs) {
			if g.Sessions < 1 || g.Sessions > callers {
				t.Errorf("shard %d holds %d sessions after %d concurrent callers, want 1..%d", sh, g.Sessions, callers, callers)
			}
		}
	})
}

// TestClientRetriesStayExactlyOnce puts a TCP proxy between a client and
// each server that holds every other reply back past the client's attempt
// timeout, so a large share of its attempts are given up on while their
// request is already in the log, and the operation is sent again — same
// session, same seqno, fresh ReqID — to be answered from the dedup table
// while the first reply arrives for an attempt nobody waits on. However
// often that happens, every acknowledged Incr moved its counter by exactly
// one and no two of them saw the same value.
func TestClientRetriesStayExactlyOnce(t *testing.T) {
	servers, addrs := startCluster(t, 3, 2, BackendRaft, 23)
	newClient := func(addrs []string, base types.ClientID, attempt time.Duration) *Client {
		cl, err := NewClient(ClientConfig{
			Addrs: addrs, Shards: 2, SessionBase: base,
			AttemptTimeout: attempt, Deadline: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	patient := newClient(addrs, 170_000, 2*time.Second)
	const callers, each, keys = 4, 40, 8
	counters := func() (vals [keys]int) {
		for k := range vals {
			res, err := patient.Do(kvstore.Get(fmt.Sprintf("retry-%d", k)))
			if err != nil {
				t.Fatal(err)
			}
			vals[k], _ = strconv.Atoi(string(res)) // NOT_FOUND reads as 0
		}
		return vals
	}
	applied := func() (sum uint64) {
		for _, g := range groupSessions(t, addrs) {
			sum += g.Ops
		}
		return sum
	}
	// round drives callers closed loops of Incrs through cl, checks the
	// counters against what was acknowledged, and returns the median
	// latency and how many second copies of a request the log took.
	round := func(cl *Client) (time.Duration, int) {
		var mu sync.Mutex
		var acked [keys][]string // values acknowledged Incrs returned
		var unknown [keys]int    // Incrs that failed: applied or not, unknown
		var lat []time.Duration
		before, log := counters(), applied()
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					k := (w + i) % keys
					t0 := time.Now()
					res, err := cl.Do(kvstore.Incr(fmt.Sprintf("retry-%d", k), 1))
					mu.Lock()
					if err != nil {
						unknown[k]++
					} else {
						acked[k] = append(acked[k], string(res))
						lat = append(lat, time.Since(t0))
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		requests := int(applied() - log)
		for k, after := range counters() {
			seen := make(map[string]bool)
			for _, v := range acked[k] {
				if seen[v] {
					t.Fatalf("retry-%d: two acknowledged Incrs both returned %s", k, v)
				}
				seen[v] = true
			}
			if moved := after - before[k]; moved < len(acked[k]) || moved > len(acked[k])+unknown[k] {
				t.Fatalf("retry-%d moved by %d: %d Incrs acknowledged, %d of unknown fate", k, moved, len(acked[k]), unknown[k])
			}
		}
		if len(lat) == 0 {
			t.Fatal("no operation was acknowledged")
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		// Every request the log carried past one per operation is a retry
		// that committed a second copy of it.
		return lat[len(lat)/2], requests - callers*each
	}

	// Every other reply a proxy carries arrives past the attempt timeout:
	// at least a fifth of the operations commit twice however fast the
	// host is, and the other replies, which pass at once, ack them.
	const attempt = 50 * time.Millisecond
	proxied := make([]string, len(addrs))
	for i, a := range addrs {
		proxied[i] = holdReplies(t, a, 3*attempt)
	}
	_, copies := round(newClient(proxied, 180_000, attempt))
	t.Logf("attempt timeout %v: %d second copies committed over %d operations", attempt, copies, callers*each)
	if copies < callers*each/5 {
		t.Fatalf("%d of %d operations committed twice, want at least a fifth", copies, callers*each)
	}
	for sh := 0; sh < 2; sh++ {
		waitFor(t, 10*time.Second, func() bool { return sameKV(sh, servers...) })
	}
}

// holdReplies is a TCP proxy to target for a client: requests pass at
// once, and every other reply frame is held back for hold while the ones
// after it go on. It returns the proxy's address.
func holdReplies(t *testing.T, target string, hold time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				io.Copy(s, c)
				s.Close()
				c.Close()
			}()
			go func() {
				var mu sync.Mutex
				var held sync.WaitGroup
				for n := 0; ; n++ {
					f, err := ReadFrame(s, DefaultMaxFrame)
					if err != nil {
						break
					}
					send := func() {
						mu.Lock()
						WriteFrame(c, f)
						mu.Unlock()
					}
					if n%2 == 1 {
						send()
						continue
					}
					held.Add(1)
					time.AfterFunc(hold, func() {
						send()
						held.Done()
					})
				}
				held.Wait()
				c.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClusterMultiPaxosBackend runs the same client path over the
// multipaxos backend to pin the codec + hosting genericity.
func TestClusterMultiPaxosBackend(t *testing.T) {
	_, addrList := startCluster(t, 3, 1, BackendMultiPaxos, 3)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: 1, SessionBase: 70_000,
		AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 10; i++ {
		if _, err := cl.Do(kvstore.Incr("pxc", 1)); err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
	}
	got, err := cl.Do(kvstore.Get("pxc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "10" {
		t.Fatalf("pxc = %q, want 10", got)
	}
}

// TestMultiPaxosFailsOverWithALongLog is TestClusterSmoke's kill on the
// multipaxos backend, with a log that no longer fits a frame: phase 1
// answers with the undecided tail, not the log. When an Ack carried every
// accepted slot, Transport.Send dropped it as oversize and the group
// never led again.
func TestMultiPaxosFailsOverWithALongLog(t *testing.T) {
	servers, addrList := startCluster(t, 3, 1, BackendMultiPaxos, 5)
	cl, err := NewClient(ClientConfig{
		Addrs: addrList, Shards: 1, SessionBase: 75_000,
		AttemptTimeout: 2 * time.Second, Deadline: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	val := make([]byte, 8<<10)
	for i := 0; i < DefaultMaxFrame/len(val)+100; i++ {
		if _, err := cl.Do(kvstore.Put("big", val)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	dead := findLeader(t, servers, 0)
	servers[dead].Close()
	servers[dead] = nil
	for i := 0; i < 20; i++ {
		if _, err := cl.Do(kvstore.Incr("after", 1)); err != nil {
			t.Fatalf("incr %d after the leader was closed: %v", i, err)
		}
	}
	if got, err := cl.Do(kvstore.Get("after")); err != nil || string(got) != "20" {
		t.Fatalf("after = %q, %v; want 20", got, err)
	}
}

// TestWriteCostsTwoFramesAndFollowersLearnItIdle pins the decision
// stage on the wire, for both backends. A write is one frame out to the
// pick, the Q2−1 follower that acknowledged most, and one vote back;
// the other follower is sent what it lacks once a tick — raft's append
// and its ack, Multi-Paxos' unanswered heartbeat carrying the decided
// slots plus an Accept and its vote for a slot still open — and what
// the followers may apply rides those frames. So N sequential writes
// move 2N peer frames, plus per elapsed tick 2 (raft) or 3
// (Multi-Paxos), plus whatever heartbeats the elapsed ticks allow (two
// unanswered frames each). It was 4N when every write went to both followers, and 6N with
// a commit notice per write. And when the writes stop, the tick and the
// heartbeat alone bring every replica's store to the leader's.
func TestWriteCostsTwoFramesAndFollowersLearnItIdle(t *testing.T) {
	const (
		writes         = 200
		tick           = time.Millisecond // startCluster's
		heartbeatTicks = 5                // both modules' default
	)
	perTick := map[string]uint64{BackendRaft: 2, BackendMultiPaxos: 3}
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) {
			servers, addrList := startCluster(t, 3, 1, backend, 11)
			cl, err := NewClient(ClientConfig{
				Addrs: addrList, Shards: 1, SessionBase: 110_000,
				AttemptTimeout: 2 * time.Second, Deadline: 20 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			incr := func() {
				t.Helper()
				if _, err := cl.Do(kvstore.Incr("n", 1)); err != nil {
					t.Fatal(err)
				}
			}
			sent := func() (sum uint64) {
				for _, s := range servers {
					sum += s.TransportStats().Sent
				}
				return sum
			}
			agree := func() bool { return sameKV(0, servers...) }

			incr() // the election is over and every peer connection is dialled
			waitFor(t, 5*time.Second, agree)
			start, before := time.Now(), sent()
			for i := 0; i < writes; i++ {
				incr()
			}
			acked := time.Now()
			// Nothing is submitted from here on: only the tick and the
			// heartbeat can carry the last commit index to the followers.
			waitFor(t, 5*time.Second, agree)
			t.Logf("stores agreed %v after the last acknowledged write", time.Since(acked))
			for i, s := range servers {
				var n []byte
				s.InspectStore(0, func(st *shard.Store) { n, _ = st.KV().Get("n") })
				if string(n) != fmt.Sprint(writes+1) {
					t.Fatalf("node %d holds n=%q, want %d", i, n, writes+1)
				}
			}

			frames := sent() - before
			ticks := uint64(time.Since(start)/tick) + 1
			// Two intervals and the warm-up write's last frames of slack.
			bound := 2*writes + perTick[backend]*ticks + 2*(ticks/heartbeatTicks+2) + 4
			t.Logf("%d writes in %d ticks: %d peer frames (bound %d)", writes, ticks, frames, bound)
			if frames < 2*writes || frames > bound {
				t.Fatalf("%d writes moved %d peer frames, want between %d and %d", writes, frames, 2*writes, bound)
			}
		})
	}
}

// TestClientFollowsHintByNodeID gives a client three of a four-node
// cluster's addresses — nodes 1, 2 and 3, so list positions are not
// node IDs — and has node 2 lead: the other three start passive, which
// keeps them from campaigning but not from voting. The client's first
// attempt lands on node 1, whose NotLeader hint of 2 must take it to
// node 2's address; read as a position it names node 3, whose own hint
// of 2 then looks stale, and the rotation never reaches node 2. A
// client given node 1 alone follows the address in node 1's reply.
func TestClientFollowsHintByNodeID(t *testing.T) {
	servers, addrs := startClusterWith(t, 4, ServerConfig{
		Shards: 1, Backend: BackendRaft, TickEvery: time.Millisecond, Seed: 5,
	}, map[int]bool{2: true})
	if lead := findLeader(t, servers, 0); lead != 2 {
		t.Fatalf("node %d leads; only node 2 may campaign", lead)
	}

	cl, err := NewClient(ClientConfig{
		Addrs: []string{addrs[1], addrs[2], addrs[3]}, IDs: []types.NodeID{1, 2, 3},
		Shards: 1, SessionBase: 140_000,
		AttemptTimeout: time.Second, Deadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Do(kvstore.Incr("hinted", 1)); err != nil {
		t.Fatalf("incr through a hint to node 2: %v", err)
	}
	if got := servers[2].Metrics().Committed(); got != 1 {
		t.Fatalf("node 2 answered %d commits, want 1", got)
	}
	if guess := cl.leaderGuess(0); guess != 1 {
		t.Fatalf("leader cache holds position %d, want 1 (node 2's)", guess)
	}

	// Given node 1 alone, the client reaches node 2 at the address node
	// 1's NotLeader reply carries.
	lone, err := NewClient(ClientConfig{
		Addrs: []string{addrs[1]}, IDs: []types.NodeID{1},
		Shards: 1, SessionBase: 141_000,
		AttemptTimeout: time.Second, Deadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	if _, err := lone.Do(kvstore.Incr("hinted", 1)); err != nil {
		t.Fatalf("incr through a hint to a node the client was not given: %v", err)
	}
	if got := servers[2].Metrics().Committed(); got != 2 {
		t.Fatalf("node 2 answered %d commits, want 2", got)
	}
}

func TestParseAddrs(t *testing.T) {
	addrs, ids, err := ParseAddrs("a:1, b:2")
	if err != nil || ids != nil || len(addrs) != 2 || addrs[1] != "b:2" {
		t.Fatalf("plain list: %v %v %v", addrs, ids, err)
	}
	addrs, ids, err = ParseAddrs("1=a:1,3=b:2")
	if err != nil || len(addrs) != 2 || addrs[1] != "b:2" || len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("named list: %v %v %v", addrs, ids, err)
	}
	for _, bad := range []string{"1=a:1,b:2", "x=a:1", "-1=a:1"} {
		if _, _, err := ParseAddrs(bad); err == nil {
			t.Errorf("ParseAddrs(%q) accepted", bad)
		}
	}
	if _, err := NewClient(ClientConfig{Addrs: []string{"a:1", "b:2"}, IDs: []types.NodeID{1}}); err == nil {
		t.Error("NewClient accepted one ID for two addresses")
	}
}

// A key longer than kvstore.MaxKeyLen would wrap the command codec's
// u16 length prefix and reach the server as a different command, so Do
// must refuse it before it dials: the listener here never sees a
// connection.
func TestClientRefusesOverlongKey(t *testing.T) {
	ln, addr, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan int)
	go func() {
		n := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				accepted <- n
				return
			}
			n++
			conn.Close()
		}
	}()
	cl, err := NewClient(ClientConfig{Addrs: []string{addr}, AttemptTimeout: 50 * time.Millisecond, Deadline: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	key := strings.Repeat("k", kvstore.MaxKeyLen+4) // 65 539 bytes: wraps to a 3-byte key
	if _, err := cl.Do(kvstore.Put(key, []byte("v"))); err == nil || errors.Is(err, ErrDeadline) {
		t.Fatalf("Do with a %d-byte key: %v, want an immediate refusal", len(key), err)
	}
	ln.Close()
	if n := <-accepted; n != 0 {
		t.Fatalf("the over-long key reached the network: %d connections", n)
	}
	if _, err := cl.Do(kvstore.Get(key[:kvstore.MaxKeyLen])); !errors.Is(err, ErrDeadline) {
		t.Fatalf("a %d-byte key is legal and must be attempted: %v", kvstore.MaxKeyLen, err)
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
