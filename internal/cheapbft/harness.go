package cheapbft

import (
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Cluster is the simulated SMR cluster over 2f+1 CheapBFT replicas, plus
// CheapBFT's client entry point.
type Cluster struct {
	*runner.FrontierCluster[Message, *Replica]
}

// NewCluster builds a 2f+1 replica cluster; newSM may be nil.
func NewCluster(f int, fabric *simnet.Fabric, cfg Config, newSM func() smr.StateMachine) *Cluster {
	n := quorum.Trusted{F: f}.Size()
	cfg.F = f
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = NewReplica(types.NodeID(i), cfg)
	}
	rc := runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind}
	return &Cluster{&runner.FrontierCluster[Message, *Replica]{SMRCluster: runner.NewSMRCluster(rc, reps, newSM)}}
}

// Submit injects a client request at the given replica.
func (c *Cluster) Submit(at types.NodeID, req types.Value) {
	c.Inject(Message{Kind: MsgRequest, From: -1, To: at, Req: req})
}
