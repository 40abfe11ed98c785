package hotstuff

import (
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Cluster is the simulated SMR cluster over 3f+1 HotStuff replicas,
// plus HotStuff's client entry point.
type Cluster struct {
	*runner.SMRCluster[Message, *Replica]
}

// NewCluster builds a 3f+1 replica cluster.
func NewCluster(f int, fabric *simnet.Fabric, cfg Config, newSM func() smr.StateMachine) *Cluster {
	n := quorum.Byzantine{F: f}.Size()
	cfg.F = f
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = NewReplica(types.NodeID(i), cfg)
	}
	rc := runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind}
	return &Cluster{runner.NewSMRCluster(rc, reps, newSM)}
}

// Submit queues a request at every replica (any rotating leader will
// include it; commit-time dedup keeps it exactly-once).
func (c *Cluster) Submit(req types.Value) {
	for i := range c.Nodes {
		c.Inject(Message{Kind: MsgRequest, From: -1, To: types.NodeID(i), Req: req})
	}
}
