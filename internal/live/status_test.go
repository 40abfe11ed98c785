package live

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// TestStatusCountsLeaderChanges reads the election gauges off admin
// status: every group of a fresh cluster has named a leader once its
// boot election is over, and a survivor of its leader's death names a
// new one.
func TestStatusCountsLeaderChanges(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) {
			servers, addrs := startCluster(t, 3, 2, backend, 47)
			waitFor(t, 10*time.Second, func() bool {
				for _, addr := range addrs {
					st, ok := adminStatus(t, addr)
					if !ok {
						return false
					}
					for _, g := range st.Groups {
						if g.LeaderChanges < 1 || g.Leader < 0 {
							return false
						}
					}
				}
				return true
			})
			for i, addr := range addrs {
				st, _ := adminStatus(t, addr)
				for _, g := range st.Groups {
					t.Logf("node %d shard %d: boot leaderless %.3f ms, %d leader changes", i, g.Shard, g.LeaderlessMs, g.LeaderChanges)
				}
			}

			dead := findLeader(t, servers, 0)
			before := map[int]int{}
			for i, addr := range addrs {
				if i == dead {
					continue
				}
				st, ok := adminStatus(t, addr)
				if !ok {
					t.Fatalf("node %d: no status", i)
				}
				before[i] = st.Groups[0].LeaderChanges
			}
			servers[dead].Close()
			servers[dead] = nil
			rose := -1
			waitFor(t, 10*time.Second, func() bool {
				for i, n := range before {
					if st, ok := adminStatus(t, addrs[i]); ok && st.Groups[0].LeaderChanges > n {
						t.Logf("node %d shard 0 after the leader's close: %d leader changes, leaderless %.3f ms",
							i, st.Groups[0].LeaderChanges, st.Groups[0].LeaderlessMs)
						rose = i
						return true
					}
				}
				return false
			})

			// The same gauges, per shard, off /metrics.
			maddr, err := servers[rose].ServeMetrics("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get("http://" + maddr + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var m metricsSnapshot
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Fatal(err)
			}
			if len(m.LeaderChanges) != 2 || len(m.LeaderlessMs) != 2 {
				t.Fatalf("/metrics served leader_changes %v and leaderless_ms %v, want both shards'", m.LeaderChanges, m.LeaderlessMs)
			}
			if m.LeaderChanges["shard0"] <= before[rose] || m.LeaderlessMs["shard0"] < 0 {
				t.Fatalf("/metrics on node %d: shard0 leader_changes %d (status had %d before the close), leaderless_ms %.3f",
					rose, m.LeaderChanges["shard0"], before[rose], m.LeaderlessMs["shard0"])
			}
			t.Logf("/metrics on node %d: leader_changes %v, leaderless_ms %v", rose, m.LeaderChanges, m.LeaderlessMs)
		})
	}
}
