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
	// Enter hands a client request to the session table of every live
	// replica that takes it; if none does, the caller's retry will. A
	// read is served beside the log on raft and Multi-Paxos; PBFT
	// orders it like a write.
	Enter(req types.Request, read bool)
	// Pump drains newly committed decisions through every replica's
	// session table: the replies it matched, and each replica's decisions.
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
// Store, each replica with its session table. The fault surface, Step
// and Stats are the embedded cluster's; a backend adds its constructor
// and which replicas a request enters (forwards).
type group[M any, N runner.SMRNode[M]] struct {
	*runner.SMRCluster[M, N]
	stores []*Store
	tables []*smr.Sessions[struct{}] // tables[i] is Reps[i]'s
	// forwards: any replica forwards a request to the leader (PBFT), so
	// the first live one takes it, and a read is ordered like a write.
	// Otherwise every live claimant takes it: a deposed leader may still
	// claim the title under a partition, and stopping at it would starve
	// the real one. The executor dedups a write taken twice, and a
	// deposed claimant cannot confirm a read.
	forwards bool
}

// newGroup gives every replica of c a session table entering requests
// through entry(i).
func newGroup[M any, N runner.SMRNode[M]](c *runner.SMRCluster[M, N], stores []*Store, entry func(i int) smr.Proposer, forwards bool) *group[M, N] {
	g := &group[M, N]{SMRCluster: c, stores: stores, forwards: forwards}
	for i, rep := range c.Reps {
		g.tables = append(g.tables, smr.NewSessions[struct{}](rep, entry(i)))
	}
	return g
}

func (g *group[M, N]) Enter(req types.Request, read bool) {
	read = read && !g.forwards
	for i, t := range g.tables {
		if !g.Crashed(types.NodeID(i)) && t.Enter(req, read, struct{}{}) == smr.Taken {
			t.Propose()
			if g.forwards {
				return
			}
		}
	}
}

// Pump pumps every replica's table, in node order. A dropped read's
// entry goes unreported: the service retries. A replica that cannot
// restore an installed snapshot panics: in simulation that is a broken
// snapshot codec, not a fault to ride out.
func (g *group[M, N]) Pump() ([]types.Reply, [][]types.Decision) {
	var replies []types.Reply
	decided := make([][]types.Decision, len(g.tables))
	for i, t := range g.tables {
		ds, answered, _, err := t.Pump()
		if err != nil {
			panic(fmt.Sprintf("shard: node %d: %v", i, err))
		}
		decided[i] = ds
		for _, a := range answered {
			replies = append(replies, a.Reply)
		}
	}
	return replies, decided
}

func (g *group[M, N]) Stores() []*Store { return g.stores }

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
		return newGroup(c.SMRCluster, stores, func(i int) smr.Proposer { return c.Nodes[i] }, false), nil
	case BackendMultiPaxos:
		c := multipaxos.NewCluster(replicas, fabric, multipaxos.Config{Seed: seed}, newSM)
		return newGroup(c.SMRCluster, stores, func(i int) smr.Proposer { return c.Nodes[i] }, false), nil
	case BackendPBFT:
		f := (replicas - 1) / 3
		if f < 1 {
			f = 1
		}
		c := pbft.NewCluster(f, fabric, pbft.Config{}, newSM)
		return newGroup(c.SMRCluster, stores, func(i int) smr.Proposer { return pbftEntry{c, types.NodeID(i)} }, true), nil
	default:
		return nil, fmt.Errorf("shard: unknown backend %q", backend)
	}
}

// pbftEntry is a session table's Proposer for PBFT replica at: it
// claims every request, which the replica forwards to the primary unless
// it is the primary.
type pbftEntry struct {
	c  *pbft.Cluster
	at types.NodeID
}

func (pbftEntry) IsLeader() bool         { return true }
func (e pbftEntry) Submit(v types.Value) { e.c.Submit(e.at, v) }
