package commit

import (
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// Cluster wires one coordinator (node 0) and n cohorts (nodes 1..n) over
// a fabric.
type Cluster struct {
	*runner.Cluster[Message]
	Coord   *Coordinator
	Cohorts []*Cohort
}

// NewCluster builds a commitment cluster. vote/apply may be nil.
func NewCluster(cohorts int, fabric *simnet.Fabric, proto Protocol, vote Voter, apply func(types.NodeID) Applier) *Cluster {
	rc := runner.New(runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind})
	coord := NewCoordinator(0, proto)
	c := &Cluster{Cluster: rc, Coord: coord}
	rc.Add(0, coord)
	peers := make([]types.NodeID, cohorts)
	for i := range peers {
		peers[i] = types.NodeID(i + 1)
	}
	for i := 0; i < cohorts; i++ {
		id := types.NodeID(i + 1)
		var ap Applier
		if apply != nil {
			ap = apply(id)
		}
		h := NewCohort(id, peers, proto, vote, ap)
		c.Cohorts = append(c.Cohorts, h)
		rc.Add(id, h)
	}
	return c
}

// Outcomes returns every cohort's view of tx, indexed by cohort
// position.
func (c *Cluster) Outcomes(tx TxID) []Outcome {
	out := make([]Outcome, len(c.Cohorts))
	for i, h := range c.Cohorts {
		out[i] = h.Outcome(tx)
	}
	return out
}
