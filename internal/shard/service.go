package shard

import (
	"fmt"
	"slices"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/metrics"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/types"
)

// Config sizes and parameterizes a Service.
type Config struct {
	Shards   int    // consensus groups (default 2)
	Replicas int    // replicas per group for the fault surface (default 3)
	Backend  string // raft | multipaxos | pbft (default raft)
	Seed     uint64

	// UnsafeCoordinator ships each shard's outcome straight from its
	// own vote, before the other votes are known — the deliberately
	// broken fixture the atomic-commitment invariant must catch.
	UnsafeCoordinator bool
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 2
	}
	if c.Replicas < 1 {
		c.Replicas = 3
	}
	if c.Backend == "" {
		c.Backend = BackendRaft
	}
	return c
}

// The service's timeouts, in ticks.
const (
	retryEvery  = 30  // silence before a same-seqno resend
	voteTimeout = 120 // before a wedged prepare becomes a TxVoteAbort
	adoptAfter  = 200 // before the recovery coordinator adopts a txn
)

// Client session ranges owned by the service. Every request gets its
// own session (client = range base + request seq): the smr dedup cache
// assumes one outstanding request per client, and both the coordinators
// and the pass-through KV path multiplex concurrent requests. Each
// coordinator owns coordSessionSpan sessions; the KV path owns
// everything from kvClientBase up. All ranges sit far above any
// NodeID-derived client so sessions cannot collide.
const (
	coordClientBase  types.ClientID = 1 << 20
	coordSessionSpan types.ClientID = 1 << 18
	kvClientBase     types.ClientID = 1 << 21
)

// txnRecord is the service-side registry entry for one transaction:
// enough to hand the transaction to a recovery coordinator, plus the
// completion latch that keeps metrics from double-counting when both
// coordinators finish it.
type txnRecord struct {
	cmds    map[int][]kvstore.Command
	begunAt int
	done    bool
	outcome commit.Outcome
}

// pendingKV is one in-flight pass-through KV request.
type pendingKV struct {
	shard    int
	req      types.Request
	read     bool // a GET
	issuedAt int
}

// Metrics aggregates per-shard and per-transaction counters.
type Metrics struct {
	Commits *metrics.CounterSet // per-shard committed participations
	Aborts  *metrics.CounterSet // per-shard aborted participations
	Latency *metrics.Histogram  // begin→finish ticks per transaction
	Begun   int                 // transactions submitted
	Done    int                 // transactions finished (either outcome)
	Cross   int                 // finished transactions spanning >1 shard
}

func newMetrics() *Metrics {
	return &Metrics{
		Commits: metrics.NewCounterSet(),
		Aborts:  metrics.NewCounterSet(),
		Latency: metrics.NewHistogram(),
	}
}

// Service is the sharded replicated KV: a partition map, one SMR group
// per shard, and two 2PC coordinators (primary + recovery) driven in
// lockstep over the groups' timing wheels. It satisfies nemesis.Target
// over a global node space — shard s's replica r is NodeID s*Replicas+r,
// and the coordinators occupy the two IDs above the replicas — so fault
// schedules and the explore harness can aim at any piece of it.
//
// Simplifications, documented for the fault surface: every fault is
// projected through one of three helpers — onReplica (one replica),
// onLink (a link inside one shard) and onEvery (every shard's fabric) —
// with Partition splitting its groups per shard itself. Coordinators
// crash and restart (crash freezes the coordinator and drops its
// inbound replies; state is retained, matching runner.Restart semantics
// for replicas) but take no other fault: they sit in no partition, own
// no link (cross-shard link faults are no-ops too, because shards run
// on disjoint fabrics), and are never byzantine.
type Service struct {
	cfg    Config
	pm     PartitionMap
	groups []Group
	coords [2]*Coordinator
	down   [2]bool

	now    int
	nextTx commit.TxID
	txns   map[commit.TxID]*txnRecord
	txOpen []commit.TxID // the unfinished ones, oldest first

	kvSeq       uint64
	kvPending   map[uint64]*pendingKV
	kvReplies   []types.Reply
	lastDecided [][][]types.Decision // [shard][replica][]decisions from the latest Step

	metrics *Metrics

	crashes, restarts, partitions, heals int
}

// NewService builds the sharded service; it panics only on an unknown
// backend, mirroring the protocol harness constructors.
func NewService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		pm:        NewPartitionMap(cfg.Shards),
		txns:      make(map[commit.TxID]*txnRecord),
		kvPending: make(map[uint64]*pendingKV),
		metrics:   newMetrics(),
	}
	for i := 0; i < cfg.Shards; i++ {
		g, err := NewGroup(cfg.Backend, cfg.Replicas, MixSeed(cfg.Seed, uint64(i)))
		if err != nil {
			panic(err)
		}
		s.groups = append(s.groups, g)
	}
	s.lastDecided = make([][][]types.Decision, cfg.Shards)
	for i := range s.coords {
		s.coords[i] = NewCoordinator(
			coordClientBase+types.ClientID(i)*coordSessionSpan,
			cfg.UnsafeCoordinator,
			func(sh int, req types.Request) { s.groups[sh].Enter(req, false) },
		)
	}
	return s
}

// MixSeed derives shard i's seed from the service seed (splitmix64
// finalizer): the shard's fabric and its modules' private RNGs take it.
// The live runtime seeds its hosted modules with the same derivation,
// which is what lets a live cluster be compared with a simulated one.
func MixSeed(seed, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Map returns the partition map.
func (s *Service) Map() PartitionMap { return s.pm }

// Groups exposes the shard groups for invariant trackers and tests.
func (s *Service) Groups() []Group { return s.groups }

// Metrics returns the live counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Submit starts a transaction over cmds, routing each command to its
// key's shard, and returns the transaction ID.
func (s *Service) Submit(cmds []kvstore.Command) commit.TxID {
	perShard := make(map[int][]kvstore.Command)
	for _, c := range cmds {
		sh := s.pm.Shard(c.Key)
		perShard[sh] = append(perShard[sh], c)
	}
	return s.SubmitPerShard(perShard)
}

// SubmitPerShard starts a transaction with an explicit per-shard
// command placement (tests and probes use this to force cross-shard
// layouts regardless of key hashing).
func (s *Service) SubmitPerShard(perShard map[int][]kvstore.Command) commit.TxID {
	s.nextTx++
	tx := s.nextTx
	s.txns[tx] = &txnRecord{cmds: perShard, begunAt: s.now}
	s.txOpen = append(s.txOpen, tx)
	s.metrics.Begun++
	if !s.down[0] {
		s.coords[0].Begin(tx, perShard, s.now)
	}
	return tx
}

// TxDone reports whether tx has finished, and its outcome: the AND of
// the votes its participants' logs latched, as the coordinator that
// finished it read them.
func (s *Service) TxDone(tx commit.TxID) (bool, commit.Outcome) {
	rec := s.txns[tx]
	if rec == nil || !rec.done {
		return false, commit.Pending
	}
	return true, rec.outcome
}

// SubmitKVAt sends one plain KV command to an explicit shard (probes
// read marker keys back from the shard that wrote them); a GET is read,
// not logged. The request is retried under its seqno until some replica
// answers; replies surface through TakeKVReplies.
func (s *Service) SubmitKVAt(shard int, c kvstore.Command) uint64 {
	s.kvSeq++
	p := &pendingKV{shard: shard, issuedAt: s.now, read: c.Op == kvstore.OpGet, req: types.Request{
		Client: kvClientBase + types.ClientID(s.kvSeq), SeqNo: s.kvSeq, Op: c.Encode(),
	}}
	s.kvPending[s.kvSeq] = p
	s.groups[shard].Enter(p.req, p.read)
	return s.kvSeq
}

// TakeKVReplies drains replies to SubmitKVAt requests.
func (s *Service) TakeKVReplies() []types.Reply {
	r := s.kvReplies
	s.kvReplies = nil
	return r
}

// TakeDecisions drains the per-replica decision streams the latest Step
// produced for one shard, for log-agreement trackers.
func (s *Service) TakeDecisions(shard int) [][]types.Decision {
	d := s.lastDecided[shard]
	s.lastDecided[shard] = nil
	return d
}

// Unresolved counts transactions submitted but not yet finished.
func (s *Service) Unresolved() int { return len(s.txOpen) }

// OldestUnresolvedAge returns the age in ticks of the oldest unfinished
// transaction (0 if none).
func (s *Service) OldestUnresolvedAge() int {
	if len(s.txOpen) == 0 {
		return 0
	}
	return s.now - s.txns[s.txOpen[0]].begunAt
}

// Step advances the whole service one tick: coordinators fire timeouts
// and retries, every shard group steps its timing wheel, freshly
// decided log entries pump through the executors, and the resulting
// replies route back to their owning sessions.
func (s *Service) Step() {
	s.now++
	for i, co := range s.coords {
		if !s.down[i] {
			co.Tick(s.now)
		}
	}
	for _, seqno := range det.SortedKeys(s.kvPending) {
		p := s.kvPending[seqno]
		if s.now-p.issuedAt >= retryEvery {
			p.issuedAt = s.now
			s.groups[p.shard].Enter(p.req, p.read)
		}
	}
	for i, g := range s.groups {
		g.Step()
		replies, decided := g.Pump()
		s.lastDecided[i] = append(s.lastDecided[i], decided...)
		for _, r := range replies {
			s.route(r)
		}
	}
	s.adoptOverdue()
	s.collectCompletions()
}

// Run steps n ticks.
func (s *Service) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// route delivers one answer of a replica's session table, by its
// client's range, while the request it answers is still pending: a
// request that entered two replicas (two claimants, or a retry) is
// answered by each table that applies it, and the first answer ends the
// request, so the rest find nothing waiting (kvPending here, the
// coordinator's own table in OnReply). Answers to a crashed coordinator
// are dropped unseen — its same-seqno retry after restart re-reads the
// latched answer from the log.
func (s *Service) route(r types.Reply) {
	switch {
	case r.Client >= kvClientBase:
		if _, ok := s.kvPending[r.SeqNo]; !ok {
			return
		}
		delete(s.kvPending, r.SeqNo)
		s.kvReplies = append(s.kvReplies, r)
	case r.Client >= coordClientBase && r.Client < coordClientBase+types.ClientID(len(s.coords))*coordSessionSpan:
		i := int((r.Client - coordClientBase) / coordSessionSpan)
		if !s.down[i] {
			s.coords[i].OnReply(r, s.now)
		}
	}
}

// adoptOverdue hands stuck transactions to whichever coordinator can
// make progress: the recovery coordinator adopts anything older than
// adoptAfter, and the primary picks up registrations it missed while
// crashed. Either Begins the transaction, replaying the same protocol:
// prepares re-read latched votes, so concurrent drivers compute one
// outcome from them.
func (s *Service) adoptOverdue() {
	for _, tx := range s.txOpen {
		rec := s.txns[tx]
		if !s.down[0] && !s.coords[0].Knows(tx) {
			s.coords[0].Begin(tx, rec.cmds, s.now)
		}
		if s.now-rec.begunAt >= adoptAfter && !s.down[1] {
			s.coords[1].Begin(tx, rec.cmds, s.now)
		}
	}
}

// collectCompletions drains both coordinators' finished transactions,
// latching each in the registry so metrics count it exactly once.
func (s *Service) collectCompletions() {
	for i, co := range s.coords {
		if s.down[i] {
			continue
		}
		for _, res := range co.TakeCompleted() {
			rec := s.txns[res.Tx]
			if rec == nil || rec.done {
				continue
			}
			rec.done = true
			rec.outcome = res.Outcome
			if at, ok := slices.BinarySearch(s.txOpen, res.Tx); ok {
				s.txOpen = slices.Delete(s.txOpen, at, at+1)
			}
			s.metrics.Done++
			if len(res.Shards) > 1 {
				s.metrics.Cross++
			}
			s.metrics.Latency.Add(s.now - rec.begunAt)
			for _, sh := range res.Shards {
				name := fmt.Sprintf("shard%d", sh)
				if res.Outcome == commit.Committed {
					s.metrics.Commits.Add(name, 1)
				} else {
					s.metrics.Aborts.Add(name, 1)
				}
			}
		}
	}
}

// --- nemesis.Target over the global node space ---

// coordBase returns the first coordinator NodeID.
func (s *Service) coordBase() types.NodeID {
	return types.NodeID(s.cfg.Shards * s.cfg.Replicas)
}

// locate splits a global replica ID into (shard, local), reporting
// false for coordinator IDs or replicas beyond a group's actual size.
func (s *Service) locate(id types.NodeID) (int, types.NodeID, bool) {
	if id < 0 || id >= s.coordBase() {
		return 0, 0, false
	}
	sh := int(id) / s.cfg.Replicas
	local := types.NodeID(int(id) % s.cfg.Replicas)
	if int(local) >= len(s.groups[sh].Stores()) {
		return 0, 0, false
	}
	return sh, local, true
}

// onReplica applies f to the group hosting global replica id, under its
// local ID, reporting whether id is a replica.
func (s *Service) onReplica(id types.NodeID, f func(g Group, local types.NodeID)) bool {
	sh, local, ok := s.locate(id)
	if ok {
		f(s.groups[sh], local)
	}
	return ok
}

// onLink applies f to the group hosting both ends of from→to. Links
// exist only inside one shard: cross-shard and coordinator links are
// no-ops, because shards run on disjoint fabrics.
func (s *Service) onLink(from, to types.NodeID, f func(g Group, from, to types.NodeID)) {
	fs, fl, ok1 := s.locate(from)
	ts, tl, ok2 := s.locate(to)
	if ok1 && ok2 && fs == ts {
		f(s.groups[fs], fl, tl)
	}
}

// onEvery applies f to every shard group.
func (s *Service) onEvery(f func(g Group)) {
	for _, g := range s.groups {
		f(g)
	}
}

// setDown freezes or thaws the coordinator with global ID id, if it is
// one.
func (s *Service) setDown(id types.NodeID, down bool) {
	if i := int(id - s.coordBase()); i >= 0 && i < len(s.coords) {
		s.down[i] = down
	}
}

// Crash pauses a replica or freezes a coordinator.
func (s *Service) Crash(id types.NodeID) {
	s.crashes++
	if !s.onReplica(id, Group.Crash) {
		s.setDown(id, true)
	}
}

// Restart resumes a crashed replica or coordinator.
func (s *Service) Restart(id types.NodeID) {
	s.restarts++
	if !s.onReplica(id, Group.Restart) {
		s.setDown(id, false)
	}
}

// Partition projects global groups onto each shard's fabric.
// Coordinators are unaffected (they talk to shards through submitted
// log entries, not fabric links).
func (s *Service) Partition(groups ...[]types.NodeID) {
	s.partitions++
	for sh, g := range s.groups {
		var locals [][]types.NodeID
		for _, grp := range groups {
			var l []types.NodeID
			for _, id := range grp {
				if gsh, local, ok := s.locate(id); ok && gsh == sh {
					l = append(l, local)
				}
			}
			if len(l) > 0 {
				locals = append(locals, l)
			}
		}
		if len(locals) > 0 {
			g.Partition(locals...)
		}
	}
}

// Heal clears every shard's partition.
func (s *Service) Heal() {
	s.heals++
	s.onEvery(Group.Heal)
}

// CutLink, RestoreLink, SetLinkDelay and ClearLinkDelay act on a
// same-shard link (onLink); the rate faults on every shard's fabric;
// ArmByzantine and DisarmByzantine on a replica's interceptor, never a
// coordinator's (coordinators are trusted in 2PC).
func (s *Service) CutLink(from, to types.NodeID)     { s.onLink(from, to, Group.CutLink) }
func (s *Service) RestoreLink(from, to types.NodeID) { s.onLink(from, to, Group.RestoreLink) }
func (s *Service) SetLinkDelay(from, to types.NodeID, lo, hi int) {
	s.onLink(from, to, func(g Group, from, to types.NodeID) { g.SetLinkDelay(from, to, lo, hi) })
}
func (s *Service) ClearLinkDelay(from, to types.NodeID) { s.onLink(from, to, Group.ClearLinkDelay) }
func (s *Service) SetDropRate(p float64)                { s.onEvery(func(g Group) { g.SetDropRate(p) }) }
func (s *Service) ClearDropRate()                       { s.onEvery(Group.ClearDropRate) }
func (s *Service) SetDupRate(p float64)                 { s.onEvery(func(g Group) { g.SetDupRate(p) }) }
func (s *Service) ClearDupRate()                        { s.onEvery(Group.ClearDupRate) }
func (s *Service) ArmByzantine(id types.NodeID, mode string) {
	s.onReplica(id, func(g Group, local types.NodeID) { g.ArmByzantine(local, mode) })
}
func (s *Service) DisarmByzantine(id types.NodeID) { s.onReplica(id, Group.DisarmByzantine) }

// Stats sums the shard groups' runner statistics, folding in the
// service-level fault counters.
func (s *Service) Stats() runner.Stats {
	var out runner.Stats
	ticks := 0
	for _, g := range s.groups {
		st := g.Stats()
		out.Add(st)
		ticks = max(ticks, st.Ticks)
	}
	out.Ticks = ticks // groups step in lockstep: elapsed time is not a sum
	out.Crashes = s.crashes
	out.Restarts = s.restarts
	out.Partitions = s.partitions
	out.Heals = s.heals
	return out
}
