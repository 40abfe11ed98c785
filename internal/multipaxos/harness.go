package multipaxos

import (
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// smr.Replica finds the compaction surface by type assertion: a Node
// that fell short of it would silently never compact.
var _ smr.Compactor = (*Node)(nil)

// Cluster is the simulated SMR cluster over Multi-Paxos nodes.
type Cluster struct {
	*runner.SMRCluster[Message, *Node]
}

// NewCluster builds n replicas (IDs 0..n-1) each applying to its own
// state machine produced by newSM (nil newSM skips executors).
func NewCluster(n int, fabric *simnet.Fabric, cfg Config, newSM func() smr.StateMachine) *Cluster {
	cfg.Peers = make([]types.NodeID, n)
	for i := range cfg.Peers {
		cfg.Peers[i] = types.NodeID(i)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(types.NodeID(i), cfg)
	}
	rc := runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind}
	return &Cluster{runner.NewSMRCluster(rc, nodes, newSM)}
}
