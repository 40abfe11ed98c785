package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// The raft-member episode drives Raft under membership churn with
// aggressive log compaction, so nemesis rmnode/addnode events exercise
// the whole reconfiguration + snapshot-transfer machinery: a removed
// node is voted out and killed; its re-admission replaces it with a
// fresh, stateless instance that can only catch up through an
// InstallSnapshot once the survivors have pruned the log prefix. The
// replacement waits for the removal to commit: until then every config
// still counts the node, and a counted member that forgets its term,
// its vote and the entries it acknowledged is the one fault Raft's
// crash-recovery model does not allow (agreement broke on 3 of 400
// seeds when the swap was immediate).
//
// On top of the shared log-prefix invariants it checks:
//
//   - apply-contiguity: a node's committed slots advance by exactly one,
//     except across a snapshot install (which jumps to the snapshot
//     index).
//   - snapshot-install: an installed snapshot's application state must
//     be byte-identical to the canonical digest of the committed prefix
//     it claims to summarize.
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

type memberEpisode struct {
	c    *raft.Cluster
	tr   *LogTracker
	seed uint64
	size int

	// Canonical committed history, folded in contiguous slot order.
	cursor  types.Seq            // highest slot folded so far
	canonFp uint64               // rolling digest of the fold at cursor
	fpAt    map[types.Seq]uint64 // digest after each folded slot
	memAt   map[types.Seq]string // member set after each folded slot
	members []types.NodeID       // member fold at cursor

	applied  []types.Seq // per node: last applied slot (contiguity check)
	nodeFp   []uint64    // per node: digest of its own applied prefix
	lastSnap []types.Seq // per node: last seen snapshot index

	pending       []nemesis.Event // membership changes awaiting commitment
	swapped       bool            // pending[0] is an add whose fresh instance is in
	installs      int
	compactions   int
	expectInstall bool // an add happened after every member had compacted
	violation     *Violation
}

func newRaftMemberEpisode(n int, seed uint64) *Episode {
	c := raft.NewCluster(n, campaignFabric(seed), raft.Config{Seed: seed}, nil)
	ep := &memberEpisode{
		c: c, tr: NewLogTracker(n), seed: seed, size: n,
		canonFp:  fnvOffset,
		fpAt:     map[types.Seq]uint64{},
		memAt:    map[types.Seq]string{},
		members:  nodeIDs(n),
		applied:  make([]types.Seq, n),
		nodeFp:   make([]uint64, n),
		lastSnap: make([]types.Seq, n),
	}
	for i := range ep.nodeFp {
		ep.nodeFp[i] = fnvOffset
	}
	return &Episode{
		Target: memberTarget{Cluster: c.Cluster, ep: ep},
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
			if ep.tr.MinCount() < 1 || len(ep.pending) > 0 {
				return false
			}
			return !ep.expectInstall || ep.installs > 0
		},
		Stats: c.Stats,
	}
}

// memberTarget extends the runner cluster with nemesis.MemberTarget:
// removal kills the node and queues the conf change; re-admission
// queues the conf-add, and driveMembership swaps in the fresh instance
// when the add reaches the head of the queue — that is, once the
// removal ahead of it has committed.
type memberTarget struct {
	*runner.Cluster[raft.Message]
	ep *memberEpisode
}

func (t memberTarget) RemoveNode(id types.NodeID) {
	t.Cluster.Crash(id)
	t.ep.pending = append(t.ep.pending, nemesis.Event{Op: nemesis.OpRemoveNode, Node: id})
}

func (t memberTarget) AddNode(id types.NodeID) {
	if int(id) < 0 || int(id) >= t.ep.size {
		return
	}
	t.ep.pending = append(t.ep.pending, nemesis.Event{Op: nemesis.OpAddNode, Node: id})
}

// swapIn replaces node id with a fresh, stateless instance and starts
// it. A fresh joiner must start passive: it has no log, no config, and
// must not disrupt the incumbent leader with early campaigns.
func (ep *memberEpisode) swapIn(id types.NodeID) {
	i := int(id)
	fresh := raft.New(id, raft.Config{
		Peers: nodeIDs(ep.size), Passive: true, Seed: ep.seed ^ uint64(id)<<32,
	})
	ep.c.Set(id, fresh, nil)
	ep.tr.Reset(i)
	ep.applied[i] = 0
	ep.nodeFp[i] = fnvOffset
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
func (ep *memberEpisode) driveMembership() {
	if len(ep.pending) == 0 {
		return
	}
	e := ep.pending[0]
	inFold := memberIn(ep.members, e.Node)
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
		if memberIn(n.Members(), e.Node) != inFold {
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

// observe drains installs and decisions from every node, folds the
// canonical history forward, compacts eager nodes, and runs the
// per-tick invariant checks.
func (ep *memberEpisode) observe() {
	for i, n := range ep.c.Nodes {
		if snap := n.TakeInstalledSnapshot(); snap != nil {
			ep.installs++
			ep.checkInstall(i, snap)
			ep.applied[i] = snap.LastIndex
			if fp, ok := ep.fpAt[snap.LastIndex]; ok {
				ep.nodeFp[i] = fp
			}
		}
		ds := n.TakeDecisions()
		for _, d := range ds {
			if d.Slot != ep.applied[i]+1 && ep.violation == nil {
				ep.violation = &Violation{
					Invariant: "apply-contiguity",
					Detail: fmt.Sprintf("node %d applied slot %d after %d without a snapshot install",
						i, d.Slot, ep.applied[i]),
				}
			}
			ep.applied[i] = d.Slot
			ep.nodeFp[i] = mixDecision(ep.nodeFp[i], d)
		}
		ep.tr.Observe(i, ds)
	}
	ep.foldCanonical()
	for i, n := range ep.c.Nodes {
		if n.CommitFrontier()-n.SnapshotIndex() >= memberCompactLag {
			var st [8]byte
			binary.LittleEndian.PutUint64(st[:], ep.nodeFp[i])
			if n.Compact(n.CommitFrontier(), st[:]) {
				ep.compactions++
			}
		}
		si := n.SnapshotIndex()
		if ep.violation == nil && (si > n.CommitFrontier() || si < ep.lastSnap[i]) {
			ep.violation = &Violation{
				Invariant: "compaction-bound",
				Detail: fmt.Sprintf("node %d snapshot index %d vs commit %d (was %d)",
					i, si, n.CommitFrontier(), ep.lastSnap[i]),
			}
		}
		ep.lastSnap[i] = si
	}
}

// checkInstall verifies an installed snapshot against the canonical
// committed history at its index.
func (ep *memberEpisode) checkInstall(node int, snap *snapshot.Snapshot) {
	if ep.violation != nil {
		return
	}
	fp, ok := ep.fpAt[snap.LastIndex]
	if !ok {
		ep.violation = &Violation{
			Invariant: "snapshot-install",
			Detail: fmt.Sprintf("node %d installed a snapshot at %d, beyond the canonical frontier %d",
				node, snap.LastIndex, ep.cursor),
		}
		return
	}
	var want [8]byte
	binary.LittleEndian.PutUint64(want[:], fp)
	if !bytes.Equal(snap.State, want[:]) {
		ep.violation = &Violation{
			Invariant: "snapshot-install",
			Detail: fmt.Sprintf("node %d: snapshot state at %d is %x, canonical digest is %x",
				node, snap.LastIndex, snap.State, want),
		}
		return
	}
	if got := fmt.Sprint(snap.Members); got != ep.memberFoldAt(snap.LastIndex) {
		ep.violation = &Violation{
			Invariant: "config-safety",
			Detail: fmt.Sprintf("node %d: snapshot at %d carries members %s, committed history says %s",
				node, snap.LastIndex, got, ep.memberFoldAt(snap.LastIndex)),
		}
	}
}

// foldCanonical advances the canonical fold over the contiguous prefix
// of slots some node has committed, folding config entries into the
// canonical member set and recording per-slot digests for install
// checks.
func (ep *memberEpisode) foldCanonical() {
	for {
		v, ok := ep.tr.canonical[ep.cursor+1]
		if !ok {
			return
		}
		ep.cursor++
		ep.canonFp = mixDecision(ep.canonFp, types.Decision{Slot: ep.cursor, Val: v})
		if snapshot.IsConfChange(v) {
			if cc, err := snapshot.DecodeConfChange(v); err == nil {
				ep.members = cc.Apply(ep.members)
			}
		}
		ep.fpAt[ep.cursor] = ep.canonFp
		ep.memAt[ep.cursor] = fmt.Sprint(ep.members)
	}
}

// memberFoldAt returns the canonical member set after slot (the
// bootstrap set below the first folded slot).
func (ep *memberEpisode) memberFoldAt(slot types.Seq) string {
	if s, ok := ep.memAt[slot]; ok {
		return s
	}
	return fmt.Sprint(nodeIDs(ep.size))
}

func memberIn(ms []types.NodeID, id types.NodeID) bool {
	for _, m := range ms {
		if m == id {
			return true
		}
	}
	return false
}

func mixDecision(fp uint64, d types.Decision) uint64 {
	fp = fnvMixUint(fp, uint64(d.Slot))
	for _, b := range d.Val {
		fp = fnvMix(fp, b)
	}
	return fp
}
