package multipaxos

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// persistentCluster is raft's (raft/nemesis_test.go) over Multi-Paxos:
// Crash journals the victim's promise and accepted slots and pauses it;
// Restart rebuilds a *fresh* node from the journal and splices it in,
// so everything it learned is lost and must re-converge.
type persistentCluster struct {
	*Cluster
	t    *testing.T
	pers []*replog.Persister
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

// syncLive journals every live node's changes, once a tick.
func (pc *persistentCluster) syncLive() {
	for i, n := range pc.Nodes {
		if !pc.Crashed(types.NodeID(i)) {
			if err := pc.pers[i].Sync(n); err != nil {
				pc.t.Fatalf("sync node %d: %v", i, err)
			}
		}
	}
}

// Crash shadows the runner's Crash so pending state hits the journal
// before the node goes down.
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
	if err := checkDecidedAgree(pc.Cluster); err != nil {
		pc.t.Fatalf("after recovery of node %d: %v", id, err)
	}
}

// checkDecidedAgree asserts that any two nodes agree on every slot both
// have decided.
func checkDecidedAgree(c *Cluster) error {
	for i := 0; i < len(c.Nodes); i++ {
		for j := i + 1; j < len(c.Nodes); j++ {
			a, b := c.Nodes[i], c.Nodes[j]
			for s := max(a.SnapshotIndex(), b.SnapshotIndex()) + 1; s <= min(a.CommitFrontier(), b.CommitFrontier()); s++ {
				if !a.At(s).Val.Equal(b.At(s).Val) {
					return fmt.Errorf("decided slot %d differs between nodes %d and %d: %q vs %q", s, i, j, a.At(s).Val, b.At(s).Val)
				}
			}
		}
	}
	return nil
}

func (pc *persistentCluster) submitToLiveLeader(v types.Value) {
	for i, n := range pc.Nodes {
		if !pc.Crashed(types.NodeID(i)) && n.IsLeader() {
			n.Submit(v)
			return
		}
	}
}

// TestWALCrashRecoveryMatrix is raft's matrix of the same name over
// Multi-Paxos: the same four nemesis rows, agreement on decided slots
// after every recovery and again at convergence.
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
			if pc.Stats().Restarts == 0 {
				t.Fatal("schedule performed no WAL recovery; the matrix row tested nothing")
			}

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
			if err := checkDecidedAgree(pc.Cluster); err != nil {
				t.Fatal(err)
			}
		})
	}
}
