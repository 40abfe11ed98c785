package explore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// The member episodes (raft-member, multipaxos-member) drive a backend
// under membership churn with
// aggressive log compaction, so nemesis rmnode/addnode events exercise
// the whole reconfiguration + snapshot-transfer machinery: a removed
// node is voted out and killed; its re-admission replaces it with a
// fresh, stateless instance that can only catch up through an
// InstallSnapshot once the survivors have pruned the log prefix. The
// replacement waits for the removal to commit: until then every config
// still counts the node, and a counted member that forgets its term,
// its vote and the entries it acknowledged is the one fault Raft's
// crash-recovery model does not allow (agreement broke on 3 of 400
// seeds when the swap was immediate). Multi-Paxos' old epoch still
// counts the node for Alpha slots past its committed removal, and the
// swap does not wait for them: the node was killed before its removal
// was proposed, so every quorum that chose the removal leaves it out,
// and an old-epoch majority that counts the fresh instance meets one of
// those quorums at a node that holds the log through the removal and
// the ballot that chose it.
//
// Every node is hosted the way a live group hosts it: an smr.Replica
// over a state machine (here a digest of the commands applied), whose
// Pump restores an installed snapshot before it applies the decisions
// past it and whose CompactEvery takes the snapshots.
//
// On top of the shared log-prefix invariants it checks:
//
//   - apply-contiguity: a node's committed slots advance by exactly one,
//     except across a snapshot install (which jumps to the snapshot
//     index).
//   - snapshot-install: an installed snapshot must restore, and its
//     application state must be byte-identical to the state a replica
//     that applied the committed prefix it claims to summarize would
//     snapshot.
//   - config-safety: the member set a snapshot carries must equal the
//     fold of all committed config entries up to its index.
//   - compaction-bound: no node's snapshot index may exceed its commit
//     frontier or move backwards.

const (
	// memberCadence is the workload submit interval: denser than the
	// shared submitCadence so compaction has material to prune.
	memberCadence = 5
	// memberCompactLag is how far a node's commit frontier may run ahead
	// of its snapshot index before it compacts.
	memberCompactLag = 12
)

// memberNode is a replica a member episode churns: a log-committing node
// with a membership, a compacting log and a snapshot transfer.
type memberNode[M any] interface {
	runner.SMRNode[M]
	memberModule
	IsLeader() bool
	Submit(types.Value)
	Members() []types.NodeID
	CommitFrontier() types.Seq
}

// memberModule is what a member episode's replica reads of its node.
type memberModule interface {
	smr.Module
	smr.Compactor
	smr.Reader
}

type memberEpisode[M any, N memberNode[M]] struct {
	c     *runner.SMRCluster[M, N]
	fresh func(id types.NodeID) N // a passive joiner under id
	tr    *LogTracker
	churn

	// Canonical committed history, folded in contiguous slot order.
	cursor  types.Seq            // highest slot folded so far
	canonFp uint64               // rolling digest of the fold at cursor
	canon   *smr.Executor        // the fold applied: what a replica at cursor holds
	stateAt map[types.Seq][]byte // canon's snapshot after each folded slot
	memAt   map[types.Seq]string // member set after each folded slot
	members []types.NodeID       // member fold at cursor

	lastSnap []types.Seq // per node: last seen snapshot index

	swapped       bool // pending[0] is an add whose fresh instance is in
	installs      int
	expectInstall bool // an add happened after every member had compacted
	violation     *Violation
}

// churn is the membership queue memberTarget feeds.
type churn struct {
	size    int
	pending []nemesis.Event // membership changes awaiting commitment
}

func newRaftMemberEpisode(n int, seed uint64) *Episode {
	c := raft.NewCluster(n, campaignFabric(seed), raft.Config{Seed: seed}, nil)
	return newMemberEpisode(c.SMRCluster, func(id types.NodeID) *raft.Node {
		return raft.New(id, raft.Config{Peers: nodeIDs(n), Passive: true, Seed: seed ^ uint64(id)<<32})
	})
}

// newMultiPaxosMemberEpisode is raft-member on Multi-Paxos: the same
// remove → compact → re-add → snapshot-install churn, which its epochs
// take Alpha slots after each change is chosen.
func newMultiPaxosMemberEpisode(n int, seed uint64) *Episode {
	c := multipaxos.NewCluster(n, campaignFabric(seed), multipaxos.Config{Seed: seed}, nil)
	return newMemberEpisode(c.SMRCluster, func(id types.NodeID) *multipaxos.Node {
		return multipaxos.New(id, multipaxos.Config{Peers: nodeIDs(n), Passive: true, Seed: seed ^ uint64(id)<<32})
	})
}

func newMemberEpisode[M any, N memberNode[M]](c *runner.SMRCluster[M, N], fresh func(types.NodeID) N) *Episode {
	n := len(c.Nodes)
	ep := &memberEpisode[M, N]{
		c: c, fresh: fresh, tr: NewLogTracker(n), churn: churn{size: n},
		canonFp:  fnvOffset,
		canon:    smr.NewExecutor(0, &digestSM{fnvOffset}),
		stateAt:  map[types.Seq][]byte{},
		memAt:    map[types.Seq]string{},
		members:  nodeIDs(n),
		lastSnap: make([]types.Seq, n),
	}
	for i := range c.Nodes {
		ep.host(i)
	}
	return &Episode{
		Target: memberTarget[M]{Cluster: c.Cluster, churn: &ep.churn},
		Tick: func(now int) {
			ep.driveMembership()
			if now%memberCadence == 2 {
				submitToLeader(c.Crashed, c.Nodes, cmd(now))
			}
			c.Step()
			ep.observe()
		},
		Check: func() *Violation {
			if ep.violation != nil {
				return ep.violation
			}
			return ep.tr.Violation()
		},
		Fingerprint: func() string {
			fp := fnvMixUint(ep.tr.fp, ep.canonFp)
			fp = fnvMixUint(fp, uint64(ep.installs)<<16|uint64(len(ep.pending)))
			return fmt.Sprintf("%016x", fp)
		},
		Healthy: func() bool {
			if !ep.tr.Progressed() || len(ep.pending) > 0 {
				return false
			}
			return !ep.expectInstall || ep.installs > 0
		},
		Stats: c.Stats,
	}
}

// digestSM is the state machine a member replica hosts: a rolling
// digest of the commands applied, which is all its snapshot holds.
type digestSM struct{ fp uint64 }

func (s *digestSM) Apply(cmd types.Value) types.Value {
	s.fp = fnvMixUint(s.fp, uint64(len(cmd)))
	for _, b := range cmd {
		s.fp = fnvMix(s.fp, b)
	}
	return nil
}

func (s *digestSM) Query(types.Value) types.Value { return nil }

func (s *digestSM) Snapshot() []byte { return binary.LittleEndian.AppendUint64(nil, s.fp) }

func (s *digestSM) Restore(snap []byte) error {
	if len(snap) != 8 {
		return errors.New("explore: a digest snapshot is 8 bytes")
	}
	s.fp = binary.LittleEndian.Uint64(snap)
	return nil
}

// watchedNode is the module node i's replica reads: the node, with every
// snapshot it installed checked on its way to the replica.
type watchedNode struct {
	memberModule
	installed func(*snapshot.Snapshot)
}

func (w watchedNode) TakeInstalledSnapshot() *snapshot.Snapshot {
	snap := w.memberModule.TakeInstalledSnapshot()
	if snap != nil {
		w.installed(snap)
	}
	return snap
}

// host puts node i behind a fresh replica over an empty digest.
func (ep *memberEpisode[M, N]) host(i int) {
	w := watchedNode{ep.c.Nodes[i], func(snap *snapshot.Snapshot) {
		ep.installs++
		ep.checkInstall(i, snap)
	}}
	ep.c.Reps[i] = smr.NewReplica(types.NodeID(i), w, &digestSM{fnvOffset})
}

// memberTarget extends the runner cluster with nemesis.MemberTarget:
// removal kills the node and queues the conf change; re-admission
// queues the conf-add, and driveMembership swaps in the fresh instance
// when the add reaches the head of the queue — that is, once the
// removal ahead of it has committed.
type memberTarget[M any] struct {
	*runner.Cluster[M]
	*churn
}

func (t memberTarget[M]) RemoveNode(id types.NodeID) {
	t.Cluster.Crash(id)
	t.pending = append(t.pending, nemesis.Event{Op: nemesis.OpRemoveNode, Node: id})
}

func (t memberTarget[M]) AddNode(id types.NodeID) {
	if int(id) < 0 || int(id) >= t.size {
		return
	}
	t.pending = append(t.pending, nemesis.Event{Op: nemesis.OpAddNode, Node: id})
}

// swapIn replaces node id with a fresh, stateless instance and starts
// it. A fresh joiner must start passive: it has no log, no config, and
// must not disrupt the incumbent leader with early campaigns.
func (ep *memberEpisode[M, N]) swapIn(id types.NodeID) {
	i := int(id)
	ep.c.Set(id, ep.fresh(id), nil)
	ep.host(i)
	ep.tr.Reset(i)
	ep.lastSnap[i] = 0
	ep.c.Restart(id)
	// If every surviving member has already compacted, the joiner's
	// prefix is gone cluster-wide: only a snapshot install can catch it
	// up, so a run that ends without one is a stall.
	all := true
	for j, n := range ep.c.Nodes {
		if j != i && !ep.c.Crashed(types.NodeID(j)) && n.SnapshotIndex() == 0 {
			all = false
		}
	}
	if all {
		ep.expectInstall = true
	}
}

// driveMembership pushes the oldest queued membership change until the
// canonical committed history reflects it, resubmitting through
// whichever node currently leads (leader churn, truncation-reverted
// conf entries, and refused overlapping changes all end in a retry).
func (ep *memberEpisode[M, N]) driveMembership() {
	if len(ep.pending) == 0 {
		return
	}
	e := ep.pending[0]
	inFold := slices.Contains(ep.members, e.Node)
	if (e.Op == nemesis.OpAddNode) == inFold {
		ep.pending = ep.pending[1:]
		ep.swapped = false
		return
	}
	if e.Op == nemesis.OpAddNode && !ep.swapped {
		ep.swapIn(e.Node)
		ep.swapped = true
	}
	for i, n := range ep.c.Nodes {
		if ep.c.Crashed(types.NodeID(i)) || !n.IsLeader() {
			continue
		}
		if slices.Contains(n.Members(), e.Node) != inFold {
			return // appended, waiting for commit (or a revert)
		}
		op := snapshot.ConfRemove
		if e.Op == nemesis.OpAddNode {
			op = snapshot.ConfAdd
		}
		n.Submit(snapshot.EncodeConfChange(snapshot.ConfChange{Op: op, Node: e.Node}))
		return
	}
}

// observe pumps every node's replica — installs restored, decisions
// applied — folds the canonical history forward, compacts eager nodes,
// and runs the per-tick invariant checks.
func (ep *memberEpisode[M, N]) observe() {
	for i, rep := range ep.c.Reps {
		ds, _, _, err := rep.Pump()
		if err != nil {
			ep.violate("snapshot-install", "node %d: %v", i, err)
		}
		// The executor applies a decision only when it is the next slot:
		// it stands on the last of ds exactly if ds continued, one slot at
		// a time, from where it stood (after the restore, if there was one).
		front := rep.Exec().NextSlot() - 1
		for k, d := range ds {
			if d.Slot != front-types.Seq(len(ds)-1-k) {
				ep.violate("apply-contiguity", "node %d decided slot %d out of turn: %d decisions left its replica at slot %d with no snapshot install to explain it",
					i, d.Slot, len(ds), front)
			}
		}
		ep.tr.Observe(i, ds)
	}
	ep.foldCanonical()
	for i, n := range ep.c.Nodes {
		ep.c.Reps[i].CompactEvery(memberCompactLag)
		si := n.SnapshotIndex()
		if si > n.CommitFrontier() || si < ep.lastSnap[i] {
			ep.violate("compaction-bound", "node %d snapshot index %d vs commit %d (was %d)",
				i, si, n.CommitFrontier(), ep.lastSnap[i])
		}
		ep.lastSnap[i] = si
	}
}

// violate records the episode's first violation.
func (ep *memberEpisode[M, N]) violate(invariant, format string, args ...any) {
	if ep.violation == nil {
		ep.violation = &Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	}
}

// checkInstall verifies an installed snapshot against the canonical
// committed history at its index.
func (ep *memberEpisode[M, N]) checkInstall(node int, snap *snapshot.Snapshot) {
	want, ok := ep.stateAt[snap.LastIndex]
	if !ok {
		ep.violate("snapshot-install", "node %d installed a snapshot at %d, beyond the canonical frontier %d",
			node, snap.LastIndex, ep.cursor)
	} else if !bytes.Equal(snap.State, want) {
		ep.violate("snapshot-install", "node %d: snapshot state at %d is %x, the canonical replica's is %x",
			node, snap.LastIndex, snap.State, want)
	} else if got := fmt.Sprint(snap.Members); got != ep.memAt[snap.LastIndex] {
		ep.violate("config-safety", "node %d: snapshot at %d carries members %s, committed history says %s",
			node, snap.LastIndex, got, ep.memAt[snap.LastIndex])
	}
}

// foldCanonical advances the canonical fold over the contiguous prefix
// of slots some node has committed, folding config entries into the
// canonical member set and recording what a replica holds after each
// slot for install checks.
func (ep *memberEpisode[M, N]) foldCanonical() {
	for {
		v, ok := ep.tr.canonical[ep.cursor+1]
		if !ok {
			return
		}
		ep.cursor++
		d := types.Decision{Slot: ep.cursor, Val: v}
		ep.canonFp = mixDecision(ep.canonFp, d)
		ep.canon.Commit(d)
		if snapshot.IsConfChange(v) {
			if cc, err := snapshot.DecodeConfChange(v); err == nil {
				ep.members = cc.Apply(ep.members)
			}
		}
		ep.stateAt[ep.cursor] = ep.canon.SnapshotState()
		ep.memAt[ep.cursor] = fmt.Sprint(ep.members)
	}
}

func mixDecision(fp uint64, d types.Decision) uint64 {
	fp = fnvMixUint(fp, uint64(d.Slot))
	for _, b := range d.Val {
		fp = fnvMix(fp, b)
	}
	return fp
}
