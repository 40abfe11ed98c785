package live

import (
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
			waitFor(t, 10*time.Second, func() bool {
				for i, n := range before {
					if st, ok := adminStatus(t, addrs[i]); ok && st.Groups[0].LeaderChanges > n {
						t.Logf("node %d shard 0 after the leader's close: %d leader changes, leaderless %.3f ms",
							i, st.Groups[0].LeaderChanges, st.Groups[0].LeaderlessMs)
						return true
					}
				}
				return false
			})
		})
	}
}
