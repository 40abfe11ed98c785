package runner

import (
	"fmt"

	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// SMRNode is a protocol replica that commits a log: the runner contract
// plus the decision stream an smr.Replica drains.
type SMRNode[M any] interface {
	Node[M]
	smr.Module
}

// SMRCluster is the simulated driver of smr.Replica: a Cluster whose
// nodes are log-committing replicas of one protocol, IDs 0..n-1, each
// hosted by a Replica that feeds its decisions to its own state
// machine. The protocol packages wrap it with their own constructors
// and checks; everything about hosting is here.
type SMRCluster[M any, N SMRNode[M]] struct {
	*Cluster[M]
	Nodes []N            // Nodes[i] has NodeID i
	Reps  []*smr.Replica // Reps[i] hosts Nodes[i]
}

// NewSMRCluster builds a cluster of nodes, node i under NodeID i. Each
// replica applies to its own state machine from newSM; a nil newSM
// leaves the replicas without executors (Pump returns decisions only).
func NewSMRCluster[M any, N SMRNode[M]](cfg Config[M], nodes []N, newSM func() smr.StateMachine) *SMRCluster[M, N] {
	c := &SMRCluster[M, N]{Cluster: New(cfg)}
	for i, n := range nodes {
		var sm smr.StateMachine
		if newSM != nil {
			sm = newSM()
		}
		c.Set(types.NodeID(i), n, sm)
	}
	return c
}

// Set makes node the replica with the given id, hosted by a fresh
// Replica over sm (nil for none): it replaces the node already there —
// a reboot from disk, a fresh instance of a removed member — or, with
// id == len(Nodes), joins as a new one. The cluster is the auditor of
// its replicas, so each executor keeps its apply history (Execs,
// smr.CheckPrefixConsistency).
func (c *SMRCluster[M, N]) Set(id types.NodeID, node N, sm smr.StateMachine) {
	rep := smr.NewReplica(id, node, sm)
	if exec := rep.Exec(); exec != nil {
		exec.KeepHistory()
	}
	if int(id) == len(c.Nodes) {
		c.Nodes = append(c.Nodes, node)
		c.Reps = append(c.Reps, rep)
	} else {
		c.Nodes[id], c.Reps[id] = node, rep
	}
	c.Add(id, node)
}

// Execs returns every replica's executor, indexed like Nodes.
func (c *SMRCluster[M, N]) Execs() []*smr.Executor {
	execs := make([]*smr.Executor, len(c.Reps))
	for i, r := range c.Reps {
		execs[i] = r.Exec()
	}
	return execs
}

// Correct reports whether a cluster-wide check should count node id: it
// is neither crashed nor listed in faulty (the replicas a test has made
// byzantine).
func (c *SMRCluster[M, N]) Correct(id types.NodeID, faulty []types.NodeID) bool {
	for _, f := range faulty {
		if f == id {
			return false
		}
	}
	return !c.Crashed(id)
}

// FrontierCluster is an SMRCluster whose nodes report the contiguous
// slot frontier they have executed, as the BFT replicas do.
type FrontierCluster[M any, N interface {
	SMRNode[M]
	ExecutedFrontier() types.Seq
}] struct{ *SMRCluster[M, N] }

// ExecutedEverywhere reports whether every correct replica (Correct)
// has executed through seq.
func (c *FrontierCluster[M, N]) ExecutedEverywhere(seq types.Seq, faulty ...types.NodeID) bool {
	for i, n := range c.Nodes {
		if c.Correct(types.NodeID(i), faulty) && n.ExecutedFrontier() < seq {
			return false
		}
	}
	return true
}

// Pump drains every replica's newly committed decisions into its state
// machine and returns the client replies that produced, and the reads
// answered, in node order, and the decisions, indexed like Nodes. Call
// after Step/Run. A replica that cannot restore an installed snapshot
// panics: in simulation that is a broken snapshot codec, not a fault to
// ride out. A dropped read goes unreported: simulated clients retry.
func (c *SMRCluster[M, N]) Pump() ([]types.Reply, [][]types.Decision) {
	var replies []types.Reply
	decided := make([][]types.Decision, len(c.Reps))
	for i, r := range c.Reps {
		ds, rs, _, err := r.Pump()
		if err != nil {
			panic(fmt.Sprintf("runner: node %d: %v", i, err))
		}
		decided[i] = ds
		replies = append(replies, rs...)
	}
	return replies, decided
}

// RunPumped runs ticks steps, pumping after each, and collects the
// replies.
func (c *SMRCluster[M, N]) RunPumped(ticks int) []types.Reply {
	var replies []types.Reply
	for i := 0; i < ticks; i++ {
		c.Step()
		rs, _ := c.Pump()
		replies = append(replies, rs...)
	}
	return replies
}

// TakeAllDecisions is Pump for callers that track decisions themselves:
// every replica's newly committed decisions, indexed like Nodes.
func (c *SMRCluster[M, N]) TakeAllDecisions() [][]types.Decision {
	_, decided := c.Pump()
	return decided
}

// WaitLeader runs until a live node reports IsLeader, returning it (the
// zero N, nil for pointer nodes, on timeout). Nodes of a protocol
// without a stable leader have no IsLeader and never qualify.
func (c *SMRCluster[M, N]) WaitLeader(maxTicks int) N {
	var lead N
	c.RunUntil(func() bool {
		for i, n := range c.Nodes {
			l, ok := any(n).(interface{ IsLeader() bool })
			if ok && l.IsLeader() && !c.Crashed(types.NodeID(i)) {
				lead = n
				return true
			}
		}
		return false
	}, maxTicks)
	return lead
}
