package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/types"
)

// startCluster brings up n live servers on loopback ports and returns
// them with the client-facing address list (index = node ID).
func startCluster(t *testing.T, n, shards int, backend string, seed uint64) ([]*Server, []string) {
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
		srv, err := NewServerOn(lns[i], ServerConfig{
			Self:      types.NodeID(i),
			Addrs:     addrs,
			Shards:    shards,
			Backend:   backend,
			TickEvery: time.Millisecond,
			Seed:      seed,
		})
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
		waitFor(t, 10*time.Second, func() bool {
			a, okA := sA.SnapshotKV(sh)
			b, okB := sB.SnapshotKV(sh)
			// Skip the 8-byte applied counter: leader no-ops inflate it
			// differently per node; the KV contents must match exactly.
			return okA && okB && len(a) >= 8 && len(b) >= 8 && bytes.Equal(a[8:], b[8:])
		})
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
// through one client; per-request sessions keep them all exactly-once.
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

// A peer message the module inbox cannot take is counted: raft recovers
// a lost append with a reject round trip, so the loss has to be visible
// to whoever reads /metrics. A stopped node refuses every message, which
// is the cheapest way to make Deliver say no.
func TestInboxDropsCounted(t *testing.T) {
	servers, _ := startCluster(t, 1, 1, BackendRaft, 9)
	s := servers[0]
	s.Close()
	frame := RaftCodec{}.Append([]byte{0, 0, 0, 0}, raft.Message{Kind: raft.MsgAppend, From: 1, To: 0, Term: 1})
	s.onPeerFrame(1, frame)
	s.onPeerFrame(1, frame)
	if got := s.Metrics().InboxDrops(); got != 2 {
		t.Fatalf("InboxDrops = %d, want 2", got)
	}
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap struct {
		InboxDrops uint64 `json:"inbox_drops"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || snap.InboxDrops != 2 {
		t.Fatalf("/metrics inbox_drops = %d (err %v), want 2", snap.InboxDrops, err)
	}
}
