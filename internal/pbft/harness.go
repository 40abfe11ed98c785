package pbft

import (
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Cluster is the simulated SMR cluster over 3f+2c+1 PBFT replicas, plus
// PBFT's client entry point and checks.
type Cluster struct {
	*runner.FrontierCluster[Message, *Replica]
	F int
}

// NewCluster builds a cluster tolerating f byzantine and cfg.C crash
// faults — 3f+1 replicas at cfg.C = 0; newSM may be nil.
func NewCluster(f int, fabric *simnet.Fabric, cfg Config, newSM func() smr.StateMachine) *Cluster {
	cfg.F = f
	reps := make([]*Replica, cfg.Quorums().Size())
	for i := range reps {
		reps[i] = NewReplica(types.NodeID(i), cfg)
	}
	rc := runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind}
	return &Cluster{FrontierCluster: &runner.FrontierCluster[Message, *Replica]{SMRCluster: runner.NewSMRCluster(rc, reps, newSM)}, F: f}
}

// Submit injects a client request at the given replica.
func (c *Cluster) Submit(at types.NodeID, req types.Value) {
	c.Inject(Message{Kind: MsgRequest, From: -1, To: at, Req: req})
}

// MatchingReplies counts replies for (client, seqno) agreeing on the
// same result; a client accepts at f+1 matching replies.
func MatchingReplies(replies []types.Reply, client types.ClientID, seqno uint64) (types.Value, int) {
	counts := map[string]int{}
	var best types.Value
	bestN := 0
	for _, r := range replies {
		if r.Client != client || r.SeqNo != seqno {
			continue
		}
		counts[string(r.Result)]++
		if counts[string(r.Result)] > bestN {
			bestN = counts[string(r.Result)]
			best = r.Result
		}
	}
	return best, bestN
}
