package flexpaxos

import (
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// Cluster is the simulated SMR cluster over Flexible Paxos nodes.
type Cluster struct {
	*runner.SMRCluster[Message, *Node]
}

// NewCluster builds n replicas (IDs 0..n-1); cfg.Quorums.N is forced to
// n. It returns the replica constructor's error for invalid quorum
// systems (Q1+Q2 <= N).
func NewCluster(n int, fabric *simnet.Fabric, cfg Config) (*Cluster, error) {
	cfg.Quorums.N = n
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := New(types.NodeID(i), cfg)
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	rc := runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind}
	return &Cluster{runner.NewSMRCluster(rc, nodes, nil)}, nil
}
