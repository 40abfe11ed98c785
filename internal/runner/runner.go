// Package runner executes a cluster of protocol state machines over the
// simnet fabric. Every protocol in this repository is written as a
// deterministic state machine — Step consumes one message, Tick advances
// one logical time unit, Drain yields outbound messages — and the runner
// supplies the event loop: a bucketed timing wheel of in-flight messages
// whose delivery times come from the fabric.
//
// The runner is generic over the protocol's message type, so Paxos
// messages and PBFT messages never mix, and it supports byzantine
// injection by intercepting a node's outbox with a mutator.
//
// The event loop is built for throughput without sacrificing replay
// determinism:
//
//   - In-flight messages live in a timing wheel keyed by delivery tick
//     rather than a binary heap. Fabric delays are small bounded
//     integers, so O(1) FIFO buckets replace O(log n) heap churn while
//     preserving the (tick, sequence) delivery order exactly.
//   - Nodes live in dense slices behind a NodeID→slot table, not maps,
//     so the per-delivery and per-tick paths never hash.
//   - Outbox collection tracks a dirty set of nodes that just Stepped
//     or Ticked instead of sweeping the whole cluster after every
//     delivery.
package runner

import (
	"sort"

	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// Node is the contract every protocol replica implements.
type Node[M any] interface {
	// Step consumes one delivered message.
	Step(m M)
	// Tick advances the node's local clock by one unit (timeout logic).
	Tick()
	// Drain removes and returns messages the node wants to send.
	Drain() []M
}

// Interceptor rewrites a node's outbound messages; returning nil drops
// the message. Byzantine behaviours (equivocation, corruption, silence)
// are expressed as interceptors so protocol code stays honest.
type Interceptor[M any] func(m M) []M

// Config wires a Cluster. Dest and Src extract addressing from a message;
// Kind (optional) labels messages for complexity accounting.
type Config[M any] struct {
	Fabric *simnet.Fabric
	Dest   func(M) types.NodeID
	Src    func(M) types.NodeID
	Kind   func(M) string
}

// Stats aggregates message-complexity metrics for an experiment run.
//
// The fault-event counters record the run's fault exposure — how much
// chaos the cluster was subjected to — so campaign output
// (cmd/consensus-explore) and bench tables can report it alongside
// message counts. Each counts applications of the corresponding
// Cluster method, whether or not the call changed state (crashing an
// already-crashed node still counts as an injected fault event).
type Stats struct {
	Sent      int            // messages handed to the fabric
	Delivered int            // messages that reached a Step call
	Dropped   int            // lost to drops, partitions, or crashes
	ByKind    map[string]int // delivered counts per message kind
	Ticks     int            // elapsed logical time

	Crashes    int // Crash calls
	Restarts   int // Restart calls
	Partitions int // Partition calls
	Heals      int // Heal calls
	CutLinks   int // CutLink calls
}

// Add folds o's counters into s: how a service sums its groups and a
// campaign its episodes. ByKind is made on first use.
func (s *Stats) Add(o Stats) {
	s.Sent += o.Sent
	s.Delivered += o.Delivered
	s.Dropped += o.Dropped
	s.Ticks += o.Ticks
	s.Crashes += o.Crashes
	s.Restarts += o.Restarts
	s.Partitions += o.Partitions
	s.Heals += o.Heals
	s.CutLinks += o.CutLinks
	if s.ByKind == nil && len(o.ByKind) > 0 {
		s.ByKind = make(map[string]int, len(o.ByKind))
	}
	for k, v := range o.ByKind {
		s.ByKind[k] += v
	}
}

// event is one queued message. The sequence number breaks ties between
// messages due at the same tick, pinning replay order.
type event[M any] struct {
	seq uint64
	msg M
}

// wheel is a power-of-two ring of FIFO buckets, one per future tick.
// Messages are appended to the bucket for their delivery tick in send
// order, so draining a bucket front-to-back yields exactly the
// (tick, seq) order the previous heap implementation produced. The
// wheel grows (re-bucketing in place) whenever a delay reaches its
// horizon, so arbitrary InjectDelayed delays stay correct.
type wheel[M any] struct {
	buckets [][]event[M] // len(buckets) is a power of two
	mask    int
	count   int
}

const initialWheelSize = 64

// push queues e for delivery at absolute tick at (> now).
func (w *wheel[M]) push(now, at int, e event[M]) {
	delay := at - now
	if delay < 1 {
		delay = 1
		at = now + 1
	}
	if delay >= len(w.buckets) {
		w.grow(now, delay)
	}
	idx := at & w.mask
	w.buckets[idx] = append(w.buckets[idx], e)
	w.count++
}

// grow resizes the ring until delay fits, re-bucketing pending events.
// All pending events sit in (now, now+oldSize], so each maps to a
// distinct bucket in the larger ring and FIFO order is preserved.
func (w *wheel[M]) grow(now, delay int) {
	size := len(w.buckets)
	if size == 0 {
		size = initialWheelSize
	}
	for size <= delay {
		size *= 2
	}
	old := w.buckets
	oldMask := w.mask
	w.buckets = make([][]event[M], size)
	w.mask = size - 1
	for at := now + 1; at <= now+len(old); at++ {
		b := old[at&oldMask]
		if len(b) > 0 {
			w.buckets[at&w.mask] = b
		}
	}
}

// take removes and returns the bucket due at tick now.
func (w *wheel[M]) take(now int) []event[M] {
	if w.count == 0 || len(w.buckets) == 0 {
		return nil
	}
	idx := now & w.mask
	b := w.buckets[idx]
	if len(b) == 0 {
		return nil
	}
	w.buckets[idx] = nil
	w.count -= len(b)
	return b
}

// noSlot marks a NodeID with no registered node.
const noSlot = int32(-1)

// maxDenseID bounds the direct-indexed NodeID→slot table; IDs at or
// above it (or negative) fall back to a map so a stray huge ID cannot
// allocate an enormous slice.
const maxDenseID = 1 << 16

// Cluster runs a set of protocol nodes over one fabric.
//
// Node state lives in dense parallel slices indexed by "slot"
// (registration index); the order slice holds slots sorted by NodeID so
// iteration order — and therefore every schedule — is independent of
// Add order.
type Cluster[M any] struct {
	cfg Config[M]

	nodes     []Node[M]
	ids       []types.NodeID // slot -> NodeID
	intercept []Interceptor[M]
	paused    []bool // crashed nodes don't Step or Tick
	isDirty   []bool

	order []int32 // slots sorted by NodeID: deterministic iteration

	slots      []int32                // NodeID -> slot for small non-negative IDs
	slotsExtra map[types.NodeID]int32 // fallback for negative or huge IDs

	// pausedUnknown and interceptUnknown hold Crash/Intercept calls for
	// IDs that have no node yet; Add transfers them to the slot tables.
	pausedUnknown    map[types.NodeID]bool
	interceptUnknown map[types.NodeID]Interceptor[M]

	dirty   []int32 // slots with possibly non-empty outboxes, deduped via isDirty
	scratch []int32 // recycled batch buffer for collect

	queue wheel[M]
	seq   uint64
	now   int
	stats Stats
}

// New builds an empty cluster.
func New[M any](cfg Config[M]) *Cluster[M] {
	if cfg.Fabric == nil {
		cfg.Fabric = simnet.NewFabric(simnet.Options{})
	}
	return &Cluster[M]{
		cfg:   cfg,
		stats: Stats{ByKind: make(map[string]int)},
	}
}

// slot resolves id to its dense index, or noSlot if unregistered.
func (c *Cluster[M]) slot(id types.NodeID) int32 {
	if id >= 0 && int(id) < len(c.slots) {
		return c.slots[id]
	}
	if s, ok := c.slotsExtra[id]; ok {
		return s
	}
	return noSlot
}

// Add registers a node under id. Adding replaces any previous node.
func (c *Cluster[M]) Add(id types.NodeID, n Node[M]) {
	if s := c.slot(id); s != noSlot {
		c.nodes[s] = n
		return
	}
	s := int32(len(c.nodes))
	c.nodes = append(c.nodes, n)
	c.ids = append(c.ids, id)
	c.intercept = append(c.intercept, c.interceptUnknown[id])
	delete(c.interceptUnknown, id)
	c.paused = append(c.paused, c.pausedUnknown[id])
	delete(c.pausedUnknown, id)
	c.isDirty = append(c.isDirty, false)

	if id >= 0 && id < maxDenseID {
		if need := int(id) + 1; need > len(c.slots) {
			grown := make([]int32, need)
			copy(grown, c.slots)
			for i := len(c.slots); i < need; i++ {
				grown[i] = noSlot
			}
			c.slots = grown
		}
		c.slots[id] = s
	} else {
		if c.slotsExtra == nil {
			c.slotsExtra = make(map[types.NodeID]int32)
		}
		c.slotsExtra[id] = s
	}

	// Insert the slot at its sorted position: one copy, no re-sort.
	i := sort.Search(len(c.order), func(i int) bool { return c.ids[c.order[i]] > id })
	c.order = append(c.order, 0)
	copy(c.order[i+1:], c.order[i:])
	c.order[i] = s
}

// Node returns the node registered under id, or nil.
func (c *Cluster[M]) Node(id types.NodeID) Node[M] {
	if s := c.slot(id); s != noSlot {
		return c.nodes[s]
	}
	return nil
}

// Intercept installs a byzantine outbox mutator for node id.
func (c *Cluster[M]) Intercept(id types.NodeID, f Interceptor[M]) {
	if s := c.slot(id); s != noSlot {
		c.intercept[s] = f
		return
	}
	if c.interceptUnknown == nil {
		c.interceptUnknown = make(map[types.NodeID]Interceptor[M])
	}
	c.interceptUnknown[id] = f
}

// Crash stops a node from stepping/ticking and cuts it off the network.
func (c *Cluster[M]) Crash(id types.NodeID) {
	if s := c.slot(id); s != noSlot {
		c.paused[s] = true
	} else {
		if c.pausedUnknown == nil {
			c.pausedUnknown = make(map[types.NodeID]bool)
		}
		c.pausedUnknown[id] = true
	}
	c.stats.Crashes++
	c.cfg.Fabric.Crash(id)
}

// Restart resumes a crashed node. Protocol state is whatever the node
// object still holds; protocols that persist via WAL reload externally
// (replace the node via Add after restoring — see the raft crash-recovery
// tests for the pattern).
func (c *Cluster[M]) Restart(id types.NodeID) {
	if s := c.slot(id); s != noSlot {
		c.paused[s] = false
	} else {
		delete(c.pausedUnknown, id)
	}
	c.stats.Restarts++
	c.cfg.Fabric.Restart(id)
}

// Partition splits the fabric into non-communicating groups (see
// simnet.Fabric.Partition) and counts the fault event.
func (c *Cluster[M]) Partition(groups ...[]types.NodeID) {
	c.stats.Partitions++
	c.cfg.Fabric.Partition(groups...)
}

// Heal removes any partition and counts the fault event.
func (c *Cluster[M]) Heal() {
	c.stats.Heals++
	c.cfg.Fabric.Heal()
}

// CutLink severs the directed link from->to and counts the fault event.
func (c *Cluster[M]) CutLink(from, to types.NodeID) {
	c.stats.CutLinks++
	c.cfg.Fabric.CutLink(from, to)
}

// RestoreLink restores a severed directed link.
func (c *Cluster[M]) RestoreLink(from, to types.NodeID) {
	c.cfg.Fabric.RestoreLink(from, to)
}

// SetLinkDelay and ClearLinkDelay forward per-link delay overrides to
// the fabric so fault injectors can drive every network fault through
// one surface (the nemesis Target interface).
func (c *Cluster[M]) SetLinkDelay(from, to types.NodeID, lo, hi int) {
	c.cfg.Fabric.SetLinkDelay(from, to, lo, hi)
}

// ClearLinkDelay removes a per-link delay override.
func (c *Cluster[M]) ClearLinkDelay(from, to types.NodeID) {
	c.cfg.Fabric.ClearLinkDelay(from, to)
}

// SetDropRate / ClearDropRate / SetDupRate / ClearDupRate forward
// fabric-wide rate overrides (drop storms, duplication bursts).
func (c *Cluster[M]) SetDropRate(p float64) { c.cfg.Fabric.SetDropRate(p) }
func (c *Cluster[M]) ClearDropRate()        { c.cfg.Fabric.ClearDropRate() }
func (c *Cluster[M]) SetDupRate(p float64)  { c.cfg.Fabric.SetDupRate(p) }
func (c *Cluster[M]) ClearDupRate()         { c.cfg.Fabric.ClearDupRate() }

// ArmByzantine installs a canned byzantine interceptor on node id.
// The modes are protocol-agnostic (they rewrite the outbox without
// inspecting message contents), which is what lets a generic fault
// schedule arm them on any cluster:
//
//	mute  the node processes messages but sends nothing (fail-silent)
//	dup   every outbound message is sent twice
//
// Unknown modes are ignored. DisarmByzantine removes the interceptor —
// including any protocol-specific one installed via Intercept.
func (c *Cluster[M]) ArmByzantine(id types.NodeID, mode string) {
	switch mode {
	case "mute":
		c.Intercept(id, func(m M) []M { return nil })
	case "dup":
		c.Intercept(id, func(m M) []M { return []M{m, m} })
	}
}

// DisarmByzantine removes node id's outbox interceptor.
func (c *Cluster[M]) DisarmByzantine(id types.NodeID) {
	c.Intercept(id, nil)
}

// Crashed reports whether id is currently crashed.
func (c *Cluster[M]) Crashed(id types.NodeID) bool {
	if s := c.slot(id); s != noSlot {
		return c.paused[s]
	}
	return c.pausedUnknown[id]
}

// Now returns the current logical time in ticks.
func (c *Cluster[M]) Now() int { return c.now }

// Fabric returns the cluster's network fabric for fault injection.
func (c *Cluster[M]) Fabric() *simnet.Fabric { return c.cfg.Fabric }

// Stats returns a snapshot of the run's message accounting.
func (c *Cluster[M]) Stats() Stats {
	s := c.stats
	s.Ticks = c.now
	kinds := make(map[string]int, len(c.stats.ByKind))
	for k, v := range c.stats.ByKind {
		kinds[k] = v
	}
	s.ByKind = kinds
	return s
}

// ResetStats zeroes message accounting (useful to measure steady state
// after warmup).
func (c *Cluster[M]) ResetStats() {
	c.stats = Stats{ByKind: make(map[string]int)}
}

// Inject queues a message from outside the cluster (a client) for
// delivery one tick from now, bypassing fabric drop decisions so tests
// can rely on requests arriving.
func (c *Cluster[M]) Inject(m M) { c.InjectDelayed(m, 1) }

// InjectDelayed queues an outside message for delivery after the given
// number of ticks (minimum 1), modelling client-side network jitter.
func (c *Cluster[M]) InjectDelayed(m M, delay int) {
	if delay < 1 {
		delay = 1
	}
	c.seq++
	c.queue.push(c.now, c.now+delay, event[M]{seq: c.seq, msg: m})
}

// send routes one protocol-emitted message through the fabric.
func (c *Cluster[M]) send(m M) {
	from, to := c.cfg.Src(m), c.cfg.Dest(m)
	c.stats.Sent++
	v, dup, hasDup := c.cfg.Fabric.Classify(from, to)
	if v.Drop {
		c.stats.Dropped++
	} else {
		c.seq++
		c.queue.push(c.now, c.now+v.Delay, event[M]{seq: c.seq, msg: m})
	}
	if hasDup && !dup.Drop {
		c.seq++
		c.queue.push(c.now, c.now+dup.Delay, event[M]{seq: c.seq, msg: m})
	}
}

// markDirty flags a node whose outbox may now be non-empty.
func (c *Cluster[M]) markDirty(s int32) {
	if !c.isDirty[s] {
		c.isDirty[s] = true
		c.dirty = append(c.dirty, s)
	}
}

// collect drains the outboxes of dirty nodes — those that Stepped or
// Ticked since the last collect — into the fabric, applying
// interceptors. A node that emitted is drained again on the next round
// (mirroring the previous implementation's loop-until-quiet sweep), so
// a message generated in response to a Tick is posted in the same tick.
// Rounds process nodes in NodeID order to keep schedules replayable.
func (c *Cluster[M]) collect() {
	for len(c.dirty) > 0 {
		batch := c.dirty
		c.dirty = c.scratch[:0]
		if len(batch) > 1 {
			sorted := true
			for i := 1; i < len(batch); i++ {
				if c.ids[batch[i-1]] > c.ids[batch[i]] {
					sorted = false
					break
				}
			}
			if !sorted {
				sort.Slice(batch, func(i, j int) bool { return c.ids[batch[i]] < c.ids[batch[j]] })
			}
		}
		for _, s := range batch {
			c.isDirty[s] = false
			if c.paused[s] {
				continue
			}
			out := c.nodes[s].Drain()
			if len(out) == 0 {
				continue
			}
			mut := c.intercept[s]
			for _, m := range out {
				if mut == nil {
					c.send(m)
					continue
				}
				for _, mm := range mut(m) {
					c.send(mm)
				}
			}
			c.markDirty(s)
		}
		c.scratch = batch[:0]
	}
}

// deliver hands one due message to its destination node.
func (c *Cluster[M]) deliver(m M) {
	to := c.cfg.Dest(m)
	s := c.slot(to)
	if s == noSlot || c.paused[s] || c.cfg.Fabric.Down(to) {
		c.stats.Dropped++
		return
	}
	c.stats.Delivered++
	if c.cfg.Kind != nil {
		c.stats.ByKind[c.cfg.Kind(m)]++
	}
	c.nodes[s].Step(m)
	c.markDirty(s)
	c.collect()
}

// Step advances the simulation one tick: deliver all messages due now,
// tick every node, and post newly generated messages.
func (c *Cluster[M]) Step() {
	c.now++
	mask := c.queue.mask
	if b := c.queue.take(c.now); b != nil {
		for i := range b {
			c.deliver(b[i].msg)
		}
		// Recycle the bucket unless the wheel grew mid-delivery (the
		// ring was reallocated) or something re-occupied the index.
		if c.queue.mask == mask {
			if idx := c.now & mask; c.queue.buckets[idx] == nil {
				c.queue.buckets[idx] = b[:0]
			}
		}
	}
	for _, s := range c.order {
		if c.paused[s] {
			continue
		}
		c.nodes[s].Tick()
		c.markDirty(s)
	}
	c.collect()
}

// Run advances the simulation by n ticks.
func (c *Cluster[M]) Run(n int) {
	for i := 0; i < n; i++ {
		c.Step()
	}
}

// RunUntil steps until pred returns true or maxTicks elapse, reporting
// whether pred fired.
func (c *Cluster[M]) RunUntil(pred func() bool, maxTicks int) bool {
	for i := 0; i < maxTicks; i++ {
		if pred() {
			return true
		}
		c.Step()
	}
	return pred()
}

// Pending returns the number of in-flight messages.
func (c *Cluster[M]) Pending() int { return c.queue.count }
