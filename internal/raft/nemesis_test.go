package raft

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// persistentCluster routes nemesis crash/restart faults through the WAL
// persistence layer: Crash journals the victim's hard state and pauses
// it; Restart rebuilds a *fresh* node from the journal and splices it
// in — a real crash-recovery (volatile state lost, durable state
// replayed), not the runner's default pause/unpause.
type persistentCluster struct {
	*Cluster
	t    *testing.T
	pers []*Persister
	cfg  Config
}

func newPersistentCluster(t *testing.T, n int, fabric *simnet.Fabric, cfg Config) *persistentCluster {
	c := NewCluster(n, fabric, cfg, nil)
	pc := &persistentCluster{Cluster: c, t: t, cfg: c.Nodes[0].cfg}
	for i := 0; i < n; i++ {
		pc.pers = append(pc.pers, openPersister(t, t.TempDir()))
	}
	return pc
}

// syncLive journals every live node's hard-state changes — the per-tick
// sync simplification persist.go documents.
func (pc *persistentCluster) syncLive() {
	for i, n := range pc.Nodes {
		if !pc.Crashed(types.NodeID(i)) {
			if err := pc.pers[i].Sync(n); err != nil {
				pc.t.Fatalf("sync node %d: %v", i, err)
			}
		}
	}
}

// Crash shadows the runner's Crash so pending hard state hits the
// journal before the node goes down.
func (pc *persistentCluster) Crash(id types.NodeID) {
	if err := pc.pers[id].Sync(pc.Nodes[id]); err != nil {
		pc.t.Fatalf("sync at crash of node %d: %v", id, err)
	}
	pc.Cluster.Crash(id)
}

// Restart shadows the runner's Restart: the reborn node starts from the
// journal alone.
func (pc *persistentCluster) Restart(id types.NodeID) {
	fresh := New(id, pc.cfg)
	if err := pc.pers[id].Restore(fresh); err != nil {
		pc.t.Fatalf("restore node %d: %v", id, err)
	}
	pc.Set(id, fresh, nil)
	pc.Cluster.Restart(id)
	if err := pc.Cluster.CheckLogMatching(); err != nil {
		pc.t.Fatalf("log matching broken right after recovery of node %d: %v", id, err)
	}
	if err := checkCommittedPrefix(pc.Cluster); err != nil {
		pc.t.Fatalf("after recovery of node %d: %v", id, err)
	}
}

// checkCommittedPrefix asserts log-prefix agreement over committed
// entries: any two nodes agree on every slot both consider committed.
func checkCommittedPrefix(c *Cluster) error {
	for i := 0; i < len(c.Nodes); i++ {
		for j := i + 1; j < len(c.Nodes); j++ {
			a, b := c.Nodes[i], c.Nodes[j]
			min := a.CommitFrontier()
			if b.CommitFrontier() < min {
				min = b.CommitFrontier()
			}
			la, lb := a.Log(), b.Log()
			for k := types.Seq(1); k <= min; k++ {
				if la[k].Term != lb[k].Term || !la[k].Val.Equal(lb[k].Val) {
					return fmt.Errorf("committed prefix diverges at slot %d between nodes %d and %d", k, i, j)
				}
			}
		}
	}
	return nil
}

// submitToLiveLeader hands the current live leader a command, if one
// exists this tick.
func (pc *persistentCluster) submitToLiveLeader(v types.Value) {
	for i, n := range pc.Nodes {
		if !pc.Crashed(types.NodeID(i)) && n.IsLeader() {
			n.Submit(v)
			return
		}
	}
}

// TestWALCrashRecoveryMatrix drives Raft's WAL persistence through
// generated nemesis crash/restart schedules of increasing harshness and
// asserts log-prefix agreement after every single recovery plus full
// convergence once the chaos ends.
func TestWALCrashRecoveryMatrix(t *testing.T) {
	const n, horizon = 5, 600
	cases := []struct {
		name    string
		seed    uint64
		faults  int
		classes []nemesis.Op
		maxDown int
	}{
		{"single-crashes", 11, 3, []nemesis.Op{nemesis.OpCrash}, 1},
		{"double-crashes", 12, 6, []nemesis.Op{nemesis.OpCrash}, 2},
		{"crash-plus-partition", 13, 5, []nemesis.Op{nemesis.OpCrash, nemesis.OpPartition}, 1},
		{"crash-cut-delay", 14, 6, []nemesis.Op{nemesis.OpCrash, nemesis.OpCutLink, nemesis.OpDelaySet}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := nemesis.Generate(simnet.NewRNG(tc.seed), nemesis.GenConfig{
				Nodes:   []types.NodeID{0, 1, 2, 3, 4},
				Horizon: horizon,
				Faults:  tc.faults,
				Classes: tc.classes,
				MaxDown: tc.maxDown,
			})
			hasCrash := false
			for _, cl := range sched.Classes() {
				if cl == "crash" {
					hasCrash = true
				}
			}
			if !hasCrash {
				t.Skipf("seed %d drew no crash fault; pick another seed", tc.seed)
			}

			fabric := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 3, Seed: tc.seed})
			pc := newPersistentCluster(t, n, fabric, Config{Seed: tc.seed})
			inj := nemesis.NewInjector(sched)
			for now := 0; now < horizon; now++ {
				inj.Fire(pc, now)
				if now%20 == 5 {
					pc.submitToLiveLeader(types.Value(fmt.Sprintf("cmd-%d", now)))
				}
				pc.Step()
				pc.syncLive()
			}
			stats := pc.Stats()
			if stats.Restarts == 0 {
				t.Fatal("schedule performed no WAL recovery; the matrix row tested nothing")
			}

			// Chaos over (schedules recover by 3/4 horizon): keep feeding
			// commands until every node converges on a common frontier.
			// Fresh submissions matter — a new leader only commits prior-term
			// entries indirectly, under a current-term commit.
			converged := false
			for extra := 0; extra < 2000 && !converged; extra++ {
				if extra%20 == 5 {
					pc.submitToLiveLeader(types.Value(fmt.Sprintf("post-%d", extra)))
				}
				pc.Step()
				f := pc.Nodes[0].CommitFrontier()
				converged = f >= 1
				for _, nd := range pc.Nodes[1:] {
					if nd.CommitFrontier() != f {
						converged = false
					}
				}
			}
			if !converged {
				frontiers := make([]types.Seq, n)
				for i, nd := range pc.Nodes {
					frontiers[i] = nd.CommitFrontier()
				}
				t.Fatalf("no convergence after recovery: frontiers %v", frontiers)
			}
			if err := pc.CheckLogMatching(); err != nil {
				t.Fatal(err)
			}
			if err := checkCommittedPrefix(pc.Cluster); err != nil {
				t.Fatal(err)
			}
		})
	}
}
