package shard

import (
	"fmt"

	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/pbft"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Group is one shard's replicated SMR group: a consensus cluster whose
// replicas apply Store. The interface hides only the protocol's message
// type; one type, group, implements it for every backend.
type Group interface {
	nemesis.Target
	nemesis.ByzTarget

	// Step advances the group's runner one tick.
	Step()
	// Submit hands an encoded client request to the current live
	// leader, reporting whether one was found. A false return is not an
	// error: the caller retries after the group re-stabilizes.
	Submit(v types.Value) bool
	// Read is Submit for a GET: raft and Multi-Paxos serve it beside the
	// log (smr.Replica.Read); PBFT orders it like a write.
	Read(req types.Request) bool
	// Pump drains newly committed decisions into the per-replica
	// executors and returns the (replies, per-replica decisions) both
	// produced this tick.
	Pump() ([]types.Reply, [][]types.Decision)
	// Stores returns the per-replica shard state machines; its length
	// is the group size.
	Stores() []*Store
	// Stats returns the group runner's message and fault counters.
	Stats() runner.Stats
}

// Backends supported by NewGroup.
const (
	BackendRaft       = "raft"
	BackendMultiPaxos = "multipaxos"
	BackendPBFT       = "pbft"
)

// group is a simulated SMR cluster of any protocol whose replicas apply
// Store. The fault surface, Step, Pump and Stats are the embedded
// cluster's; a backend adds its constructor and how a request enters
// the protocol.
type group[M any, N runner.SMRNode[M]] struct {
	*runner.SMRCluster[M, N]
	stores []*Store
	submit func(v types.Value) bool
	read   func(req types.Request) bool
}

func (g *group[M, N]) Submit(v types.Value) bool   { return g.submit(v) }
func (g *group[M, N]) Read(req types.Request) bool { return g.read(req) }
func (g *group[M, N]) Stores() []*Store            { return g.stores }

// NewGroup builds one shard group of the named backend over its own
// seeded fabric. PBFT sizes itself to 3f+1 >= replicas.
func NewGroup(backend string, replicas int, seed uint64) (Group, error) {
	fabric := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 3, Seed: seed})
	var stores []*Store
	newSM := func() smr.StateMachine {
		st := NewStore()
		stores = append(stores, st)
		return st
	}
	switch backend {
	case BackendRaft:
		c := raft.NewCluster(replicas, fabric, raft.Config{Seed: seed}, newSM)
		return leaderGroup(c.SMRCluster, stores), nil
	case BackendMultiPaxos:
		c := multipaxos.NewCluster(replicas, fabric, multipaxos.Config{Seed: seed}, newSM)
		return leaderGroup(c.SMRCluster, stores), nil
	case BackendPBFT:
		f := (replicas - 1) / 3
		if f < 1 {
			f = 1
		}
		c := pbft.NewCluster(f, fabric, pbft.Config{}, newSM)
		// PBFT backups forward client requests to the primary, so the
		// first live replica is entry point enough.
		submit := func(v types.Value) bool {
			for i := range c.Nodes {
				if id := types.NodeID(i); !c.Crashed(id) {
					c.Submit(id, v)
					return true
				}
			}
			return false
		}
		read := func(req types.Request) bool { return submit(smr.EncodeRequest(req)) }
		return &group[pbft.Message, *pbft.Replica]{c.SMRCluster, stores, submit, read}, nil
	default:
		return nil, fmt.Errorf("shard: unknown backend %q", backend)
	}
}

// leaderNode is a replica of a protocol with a stable leader that takes
// client requests directly.
type leaderNode[M any] interface {
	runner.SMRNode[M]
	IsLeader() bool
	Submit(types.Value)
}

// leaderGroup hands requests to every live node claiming leadership:
// under a partition a deposed leader may still claim the title, and
// stopping at the first claimant would starve the majority side's real
// leader. Duplicates are safe: the smr executor's (client, seqno) cache
// dedups writes, and a deposed claimant cannot confirm a read.
func leaderGroup[M any, N leaderNode[M]](c *runner.SMRCluster[M, N], stores []*Store) *group[M, N] {
	claimants := func(f func(i int, n N)) bool {
		sent := false
		for i, n := range c.Nodes {
			if !c.Crashed(types.NodeID(i)) && n.IsLeader() {
				f(i, n)
				sent = true
			}
		}
		return sent
	}
	return &group[M, N]{c, stores,
		func(v types.Value) bool { return claimants(func(_ int, n N) { n.Submit(v) }) },
		func(q types.Request) bool {
			return claimants(func(i int, _ N) { c.Reps[i].Read(q.Client, q.SeqNo, q.Op) })
		},
	}
}
