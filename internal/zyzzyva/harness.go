package zyzzyva

import (
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// Cluster bundles 3f+1 Zyzzyva replicas plus clients.
type Cluster struct {
	*runner.Cluster[Message]
	Replicas []*Replica
	Clients  []*Client
	F        int
}

// NewCluster builds a 3f+1 replica cluster with the given client count.
// Client node IDs start at 3f+1.
func NewCluster(f, clients int, fabric *simnet.Fabric, cfg Config) *Cluster {
	n := quorum.Byzantine{F: f}.Size()
	cfg.F = f
	rc := runner.New(runner.Config[Message]{Fabric: fabric, Dest: Dest, Src: Src, Kind: Kind})
	c := &Cluster{Cluster: rc, F: f}
	for i := 0; i < n; i++ {
		rep := NewReplica(types.NodeID(i), cfg)
		c.Replicas = append(c.Replicas, rep)
		rc.Add(types.NodeID(i), rep)
	}
	for i := 0; i < clients; i++ {
		cl := NewClient(types.NodeID(n+i), cfg)
		c.Clients = append(c.Clients, cl)
		rc.Add(types.NodeID(n+i), cl)
	}
	return c
}
