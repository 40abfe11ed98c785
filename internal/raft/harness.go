package raft

import (
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// smr.Replica finds the compaction surface by type assertion: a Node
// that fell short of it would silently never compact.
var _ smr.Compactor = (*Node)(nil)

// Cluster is the simulated SMR cluster over Raft nodes, plus Raft's own
// checks.
type Cluster struct {
	*runner.SMRCluster[Message, *Node]
}

// NewCluster builds n replicas (IDs 0..n-1); newSM may be nil.
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

// CheckLogMatching verifies the Log Matching property across all nodes:
// if two logs hold an entry with the same index and term, the logs are
// identical up through that index. Logs are aligned by global index, so
// replicas that compacted different prefixes compare only over the
// range both still hold.
func (c *Cluster) CheckLogMatching() error {
	for i := 0; i < len(c.Nodes); i++ {
		for j := i + 1; j < len(c.Nodes); j++ {
			na, nb := c.Nodes[i], c.Nodes[j]
			a, b := na.Log(), nb.Log()
			baseA, baseB := na.SnapshotIndex(), nb.SnapshotIndex()
			lo := baseA
			if baseB > lo {
				lo = baseB
			}
			hi := baseA + types.Seq(len(a)-1)
			if h := baseB + types.Seq(len(b)-1); h < hi {
				hi = h
			}
			for k := hi; k > lo; k-- {
				if a[k-baseA].Term == b[k-baseB].Term {
					// Everything at and below k (that both hold) must match.
					for l := lo + 1; l <= k; l++ {
						ea, eb := a[l-baseA], b[l-baseB]
						if ea.Term != eb.Term || !ea.Val.Equal(eb.Val) {
							return &logMatchError{na.id, nb.id, k, l}
						}
					}
					break
				}
			}
		}
	}
	return nil
}

type logMatchError struct {
	a, b      types.NodeID
	agreeIdx  types.Seq
	divergeAt types.Seq
}

func (e *logMatchError) Error() string {
	return "raft: log matching violated between " + e.a.String() + " and " + e.b.String()
}
