package paxos

import (
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// Cluster bundles a runner over Paxos nodes for tests, benchmarks, and
// examples.
type Cluster struct {
	*runner.Cluster[Message]
	Nodes []*Node
}

// NewCluster builds n Paxos nodes (IDs 0..n-1) over the given fabric.
// A nil fabric gets simnet defaults. cfg.Peers is filled in.
func NewCluster(n int, fabric *simnet.Fabric, cfg Config) *Cluster {
	peers := make([]types.NodeID, n)
	for i := range peers {
		peers[i] = types.NodeID(i)
	}
	cfg.Peers = peers
	rc := runner.New(runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind})
	c := &Cluster{Cluster: rc}
	for i := 0; i < n; i++ {
		node := New(types.NodeID(i), cfg)
		c.Nodes = append(c.Nodes, node)
		rc.Add(types.NodeID(i), node)
	}
	return c
}

// AllDecided reports whether every non-crashed node has decided.
func (c *Cluster) AllDecided() bool {
	for _, n := range c.Nodes {
		if c.Crashed(n.id) {
			continue
		}
		if _, ok := n.Decided(); !ok {
			return false
		}
	}
	return true
}

// DecidedValues returns each node's decided value, indexed by node
// position, with nil for nodes that have not decided. (A decided nil
// value cannot occur: proposers never propose nil.)
func (c *Cluster) DecidedValues() []types.Value {
	out := make([]types.Value, len(c.Nodes))
	for i, n := range c.Nodes {
		if d, ok := n.Decided(); ok {
			out[i] = d
		}
	}
	return out
}
