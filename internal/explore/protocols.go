package explore

import (
	"fmt"

	"fortyconsensus/internal/cheapbft"
	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/hotstuff"
	"fortyconsensus/internal/minbft"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/paxos"
	"fortyconsensus/internal/pbft"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// This file adapts each protocol harness to the Episode surface. Every
// adapter follows the same shape: a seeded fabric, a cluster, a
// deterministic tick-scheduled workload, and an invariant tracker fed
// from drained decisions.

func init() {
	Register(Protocol{Name: "paxos", Nodes: 5, MinNodes: 3, Horizon: 400, New: newPaxosEpisode})
	Register(Protocol{Name: "raft", Nodes: 5, MinNodes: 3, Horizon: 600, New: newRaftEpisode})
	Register(Protocol{Name: "raft-member", Nodes: 5, MinNodes: 3, Horizon: 600, New: newRaftMemberEpisode})
	Register(Protocol{Name: "multipaxos", Nodes: 5, MinNodes: 3, Horizon: 600, New: newMultiPaxosEpisode})
	Register(Protocol{Name: "flexpaxos", Nodes: 5, MinNodes: 3, Horizon: 600, New: newFlexPaxosEpisode})
	Register(Protocol{Name: "pbft", Nodes: 4, MinNodes: 4, Horizon: 400, New: newPBFTEpisode})
	Register(Protocol{Name: "upright", Nodes: 6, MinNodes: 6, Horizon: 400, New: newUpRightEpisode})
	Register(Protocol{Name: "hotstuff", Nodes: 4, MinNodes: 4, Horizon: 400, New: newHotStuffEpisode})
	Register(Protocol{Name: "minbft", Nodes: 3, MinNodes: 3, Horizon: 400, New: newMinBFTEpisode})
	Register(Protocol{Name: "cheapbft", Nodes: 3, MinNodes: 3, Horizon: 400, New: newCheapBFTEpisode})
	Register(Protocol{Name: "2pc", Nodes: 4, MinNodes: 3, Horizon: 600, New: newCommitEpisode(commit.TwoPC)})
	Register(Protocol{Name: "3pc", Nodes: 4, MinNodes: 3, Horizon: 600, New: newCommitEpisode(commit.ThreePC)})
}

// campaignFabric is the network every episode runs on: light jitter so
// message interleavings vary across seeds even before faults hit.
func campaignFabric(seed uint64) *simnet.Fabric {
	return simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 3, Seed: seed})
}

// submitCadence is how often SMR workloads hand the cluster a command.
const submitCadence = 20

// leaderNode abstracts leader-routed submission across SMR harnesses.
type leaderNode interface {
	IsLeader() bool
	Submit(v types.Value)
}

// submitToLeader hands v to the first live leader, if any. Lost
// commands (no leader this tick) are fine: the workload only needs to
// give live leaders something to replicate.
func submitToLeader[N leaderNode](crashed func(types.NodeID) bool, nodes []N, v types.Value) {
	for i, n := range nodes {
		if !crashed(types.NodeID(i)) && n.IsLeader() {
			n.Submit(v)
			return
		}
	}
}

func cmd(now int) types.Value { return []byte(fmt.Sprintf("cmd-%d", now)) }

// --- single-value Paxos ---

func newPaxosEpisode(n int, seed uint64) *Episode {
	c := paxos.NewCluster(n, campaignFabric(seed), paxos.Config{RandomBackoff: true, Seed: seed})
	return &Episode{
		Target: c.Cluster,
		Tick: func(now int) {
			// Two rival proposers early in the run; paxos retries
			// internally, so one submission each is enough.
			if now == 1 && !c.Crashed(0) {
				c.Nodes[0].Propose([]byte("v-left"))
			}
			if now == 3 && n > 1 && !c.Crashed(1) {
				c.Nodes[1].Propose([]byte("v-right"))
			}
			c.Step()
		},
		Check: func() *Violation { return CheckSingleValue(c.DecidedValues()) },
		Fingerprint: func() string {
			fp := uint64(fnvOffset)
			for i, v := range c.DecidedValues() {
				if v == nil {
					continue
				}
				fp = fnvMixUint(fp, uint64(i))
				for _, b := range v {
					fp = fnvMix(fp, b)
				}
			}
			return fmt.Sprintf("%016x", fp)
		},
		Healthy: func() bool {
			for _, v := range c.DecidedValues() {
				if v == nil {
					return false
				}
			}
			return true
		},
		Stats: c.Stats,
	}
}

// --- log-committing SMR: Raft, Multi-Paxos, Flexible Paxos, PBFT, UpRight, HotStuff, MinBFT, CheapBFT ---

// smrEpisode is the episode every log-committing protocol runs: on its
// cadence submit hands the cluster one command, cmd(now), its own way,
// the cluster steps, and each replica's drained decisions feed the
// log-prefix tracker.
func smrEpisode[M any, N runner.SMRNode[M]](c *runner.SMRCluster[M, N], cadence int, submit func(now int)) *Episode {
	tr := NewLogTracker(len(c.Nodes))
	return &Episode{
		Target: c.Cluster,
		Tick: func(now int) {
			if now%cadence == 5 {
				submit(now)
			}
			c.Step()
			for i, ds := range c.TakeAllDecisions() {
				tr.Observe(i, ds)
			}
		},
		Check:       tr.Violation,
		Fingerprint: tr.Fingerprint,
		Healthy:     func() bool { return tr.MinCount() >= 1 },
		Stats:       c.Stats,
	}
}

func newRaftEpisode(n int, seed uint64) *Episode {
	c := raft.NewCluster(n, campaignFabric(seed), raft.Config{Seed: seed}, nil)
	return smrEpisode(c.SMRCluster, submitCadence, func(now int) {
		submitToLeader(c.Crashed, c.Nodes, cmd(now))
	})
}

func newMultiPaxosEpisode(n int, seed uint64) *Episode {
	return multiPaxosEpisode(n, multipaxos.Config{Seed: seed})
}

func newFlexPaxosEpisode(n int, seed uint64) *Episode {
	// Smallest valid replication quorum: Q2 = n/2, Q1 = n+1-Q2, so
	// Q1+Q2 = n+1 > n holds for every cluster size the shrinker tries.
	q2 := n / 2
	if q2 < 1 {
		q2 = 1
	}
	return multiPaxosEpisode(n, multipaxos.Config{Seed: seed, Quorums: quorum.Flexible{N: n, Q1: n + 1 - q2, Q2: q2}})
}

func multiPaxosEpisode(n int, cfg multipaxos.Config) *Episode {
	c := multipaxos.NewCluster(n, campaignFabric(cfg.Seed), cfg, nil)
	return smrEpisode(c.SMRCluster, submitCadence, func(now int) {
		submitToLeader(c.Crashed, c.Nodes, cmd(now))
	})
}

// bftCadence is the byzantine protocols' submit interval: their commit
// paths take more rounds than the crash-model ones.
const bftCadence = 30

// bftFaults sizes a 3f+1 cluster from the campaign's node count.
func bftFaults(n int) int { return max((n-1)/3, 1) }

func newPBFTEpisode(n int, seed uint64) *Episode {
	return pbftEpisode(bftFaults(n), 0, seed)
}

// newUpRightEpisode is PBFT at one byzantine plus one crash fault: six
// replicas whatever n says (MinNodes pins the shrinker to the same six).
func newUpRightEpisode(_ int, seed uint64) *Episode {
	return pbftEpisode(1, 1, seed)
}

func pbftEpisode(f, crash int, seed uint64) *Episode {
	c := pbft.NewCluster(f, campaignFabric(seed), pbft.Config{C: crash}, nil)
	return smrEpisode(c.SMRCluster, bftCadence, submitRotating(len(c.Nodes), c.Crashed, c.Submit))
}

// submitRotating is the primary-backup BFT workload: it rotates the
// entry replica, skipping crashed ones; backups flood requests to the
// primary, so any live replica works.
func submitRotating(size int, crashed func(types.NodeID) bool, submit func(types.NodeID, types.Value)) func(now int) {
	return func(now int) {
		for off := 0; off < size; off++ {
			at := types.NodeID((now/bftCadence + off) % size)
			if !crashed(at) {
				submit(at, cmd(now))
				return
			}
		}
	}
}

// trustedFaults sizes a 2f+1 trusted-counter cluster the same way.
func trustedFaults(n int) int { return max((n-1)/2, 1) }

func newMinBFTEpisode(n int, seed uint64) *Episode {
	c := minbft.NewCluster(trustedFaults(n), campaignFabric(seed), minbft.Config{}, nil)
	return smrEpisode(c.SMRCluster, bftCadence, submitRotating(len(c.Nodes), c.Crashed, c.Submit))
}

func newCheapBFTEpisode(n int, seed uint64) *Episode {
	c := cheapbft.NewCluster(trustedFaults(n), campaignFabric(seed), cheapbft.Config{}, nil)
	return smrEpisode(c.SMRCluster, bftCadence, submitRotating(len(c.Nodes), c.Crashed, c.Submit))
}

func newHotStuffEpisode(n int, seed uint64) *Episode {
	c := hotstuff.NewCluster(bftFaults(n), campaignFabric(seed), hotstuff.Config{}, nil)
	return smrEpisode(c.SMRCluster, bftCadence, func(now int) {
		c.Submit(cmd(now)) // broadcast; rotating leaders pick it up
	})
}

// --- atomic commitment: 2PC, 3PC ---

// commitCadence spaces transactions far enough apart for a full
// vote/decide/ack round between them even under delay storms.
const commitCadence = 60

func newCommitEpisode(proto commit.Protocol) func(n int, seed uint64) *Episode {
	return func(n int, seed uint64) *Episode {
		cohorts := n - 1 // node 0 is the coordinator
		// Cohorts vote abort on every fourth transaction so campaigns
		// exercise both decision paths.
		voter := func(tx commit.TxID, _ types.Value) bool { return tx%4 != 3 }
		c := commit.NewCluster(cohorts, campaignFabric(seed), proto, voter, nil)
		var started []commit.TxID
		var latched *Violation
		return &Episode{
			Target: c.Cluster,
			Tick: func(now int) {
				if now%commitCadence == 5 && !c.Crashed(0) {
					tx := commit.TxID(now/commitCadence + 1)
					ops := map[types.NodeID]types.Value{}
					for i := 0; i < cohorts; i++ {
						ops[types.NodeID(i+1)] = cmd(now)
					}
					c.Coord.Begin(tx, ops)
					started = append(started, tx)
				}
				c.Step()
			},
			Check: func() *Violation {
				if latched != nil {
					return latched
				}
				for _, tx := range started {
					if v := checkAtomic(tx, c.Outcomes(tx)); v != nil {
						latched = v
						return latched
					}
				}
				return nil
			},
			Fingerprint: func() string {
				fp := uint64(fnvOffset)
				for _, tx := range started {
					for _, o := range c.Outcomes(tx) {
						fp = fnvMixUint(fp, uint64(tx)<<8|uint64(o))
					}
				}
				return fmt.Sprintf("%016x", fp)
			},
			Healthy: func() bool {
				if len(started) == 0 {
					return false
				}
				for _, tx := range started {
					for _, o := range c.Outcomes(tx) {
						if o == commit.Pending {
							return false // a blocked cohort: 2PC's signature stall
						}
					}
				}
				return true
			},
			Stats: c.Stats,
		}
	}
}

// checkAtomic flags a transaction some cohorts committed and others
// aborted. Pending cohorts are blocking, not unsafe.
func checkAtomic(tx commit.TxID, outcomes []commit.Outcome) *Violation {
	haveCommit, haveAbort := -1, -1
	for i, o := range outcomes {
		switch o {
		case commit.Committed:
			haveCommit = i
		case commit.Aborted:
			haveAbort = i
		}
	}
	if haveCommit >= 0 && haveAbort >= 0 {
		return &Violation{
			Invariant: "atomic-commitment",
			Detail: fmt.Sprintf("tx %d: cohort %d committed, cohort %d aborted",
				tx, haveCommit, haveAbort),
		}
	}
	return nil
}
