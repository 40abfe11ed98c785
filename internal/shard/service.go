package shard

import (
	"fmt"
	"slices"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/metrics"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// Config sizes and parameterizes a Service.
type Config struct {
	Shards   int    // consensus groups (default 2)
	Replicas int    // replicas per group for the fault surface (default 3)
	Backend  string // raft | multipaxos | pbft (default raft)
	Seed     uint64

	RetryEvery  int // ticks of silence before a same-seqno resend (default 30)
	VoteTimeout int // ticks before a wedged prepare round decides abort (default 120)
	AdoptAfter  int // ticks before the recovery coordinator adopts a txn (default 200)

	// UnsafeCoordinator replaces the home-shard TxDecide latch with
	// per-shard unilateral outcomes shipped straight from votes — the
	// deliberately broken fixture the atomic-commitment invariant must
	// catch.
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
	if c.RetryEvery <= 0 {
		c.RetryEvery = 30
	}
	if c.VoteTimeout <= 0 {
		c.VoteTimeout = 120
	}
	if c.AdoptAfter <= 0 {
		c.AdoptAfter = 200
	}
	return c
}

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
	enc      types.Value // encoded for the log; nil for a GET (Group.Read)
	issuedAt int
}

func (s *Service) sendKV(p *pendingKV) {
	if p.enc == nil {
		s.groups[p.shard].Read(p.req)
	} else {
		s.groups[p.shard].Submit(p.enc)
	}
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
// Simplifications, documented for the fault surface: coordinators crash
// and restart (crash freezes the coordinator and drops its inbound
// replies; state is retained, matching runner.Restart semantics for
// replicas) but do not participate in partitions, and cross-shard link
// faults are no-ops because shards run on disjoint fabrics.
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
	seen        map[types.ClientID]map[uint64]bool
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
		seen:      make(map[types.ClientID]map[uint64]bool),
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
			cfg.RetryEvery, cfg.VoteTimeout, cfg.UnsafeCoordinator,
			s.submitTo,
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

func (s *Service) submitTo(shard int, req types.Value) bool {
	return s.groups[shard].Submit(req)
}

// Shards returns the shard count.
func (s *Service) Shards() int { return s.cfg.Shards }

// Map returns the partition map.
func (s *Service) Map() PartitionMap { return s.pm }

// Groups exposes the shard groups for invariant trackers and tests.
func (s *Service) Groups() []Group { return s.groups }

// Metrics returns the live counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Now returns the service's tick clock.
func (s *Service) Now() int { return s.now }

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

// TxDone reports whether tx has finished, and the outcome the driving
// coordinator read back from the home shard's decision latch.
func (s *Service) TxDone(tx commit.TxID) (bool, commit.Outcome) {
	rec := s.txns[tx]
	if rec == nil || !rec.done {
		return false, commit.Pending
	}
	return true, rec.outcome
}

// SubmitKV routes one plain KV command by key hash.
func (s *Service) SubmitKV(c kvstore.Command) uint64 {
	return s.SubmitKVAt(s.pm.Shard(c.Key), c)
}

// SubmitKVAt sends one plain KV command to an explicit shard (probes
// read marker keys back from the shard that wrote them); a GET is read,
// not logged. The request is retried under its seqno until some replica
// answers; replies surface through TakeKVReplies.
func (s *Service) SubmitKVAt(shard int, c kvstore.Command) uint64 {
	s.kvSeq++
	p := &pendingKV{shard: shard, issuedAt: s.now, req: types.Request{
		Client: kvClientBase + types.ClientID(s.kvSeq), SeqNo: s.kvSeq, Op: c.Encode(),
	}}
	if c.Op != kvstore.OpGet {
		p.enc = smr.EncodeRequest(p.req)
	}
	s.kvPending[s.kvSeq] = p
	s.sendKV(p)
	return s.kvSeq
}

// TakeKVReplies drains replies to SubmitKV/SubmitKVAt requests.
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
		if s.now-p.issuedAt >= s.cfg.RetryEvery {
			p.issuedAt = s.now
			s.sendKV(p)
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

// route delivers one executor reply to its session, first-wins per
// (client, seqno): every live replica of a shard emits the same reply,
// and only the first copy is delivered. Replies to a crashed
// coordinator are dropped unseen — its same-seqno retry after restart
// re-reads the latched answer from the log.
func (s *Service) route(r types.Reply) {
	switch {
	case r.Client >= kvClientBase:
		if s.markSeen(r) {
			return
		}
		delete(s.kvPending, r.SeqNo)
		s.kvReplies = append(s.kvReplies, r)
	case r.Client >= coordClientBase && r.Client < coordClientBase+types.ClientID(len(s.coords))*coordSessionSpan:
		i := int((r.Client - coordClientBase) / coordSessionSpan)
		if s.down[i] {
			return
		}
		if s.markSeen(r) {
			return
		}
		s.coords[i].OnReply(r, s.now)
	}
}

// markSeen latches (client, seqno) delivery; reports true on duplicates.
func (s *Service) markSeen(r types.Reply) bool {
	m := s.seen[r.Client]
	if m == nil {
		m = make(map[uint64]bool)
		s.seen[r.Client] = m
	}
	if m[r.SeqNo] {
		return true
	}
	m[r.SeqNo] = true
	return false
}

// adoptOverdue hands stuck transactions to whichever coordinator can
// make progress: the recovery coordinator adopts anything older than
// AdoptAfter, and the primary picks up registrations it missed while
// crashed. Both paths are idempotent, and the home-shard decision latch
// makes concurrent drivers converge.
func (s *Service) adoptOverdue() {
	for _, tx := range s.txOpen {
		rec := s.txns[tx]
		if !s.down[0] && !s.coords[0].Knows(tx) {
			s.coords[0].Begin(tx, rec.cmds, s.now)
		}
		if s.now-rec.begunAt >= s.cfg.AdoptAfter && !s.down[1] {
			s.coords[1].Adopt(tx, rec.cmds, s.now)
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

// Crash pauses a replica or freezes a coordinator.
func (s *Service) Crash(id types.NodeID) {
	s.crashes++
	if sh, local, ok := s.locate(id); ok {
		s.groups[sh].Crash(local)
		return
	}
	if i := int(id - s.coordBase()); i >= 0 && i < len(s.coords) {
		s.down[i] = true
	}
}

// Restart resumes a crashed replica or coordinator.
func (s *Service) Restart(id types.NodeID) {
	s.restarts++
	if sh, local, ok := s.locate(id); ok {
		s.groups[sh].Restart(local)
		return
	}
	if i := int(id - s.coordBase()); i >= 0 && i < len(s.coords) {
		s.down[i] = false
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
	for _, g := range s.groups {
		g.Heal()
	}
}

// CutLink severs a directed link when both ends live in one shard;
// cross-shard and coordinator links do not exist, so those are no-ops.
func (s *Service) CutLink(from, to types.NodeID) {
	fs, fl, ok1 := s.locate(from)
	ts, tl, ok2 := s.locate(to)
	if ok1 && ok2 && fs == ts {
		s.groups[fs].CutLink(fl, tl)
	}
}

// RestoreLink undoes CutLink under the same projection.
func (s *Service) RestoreLink(from, to types.NodeID) {
	fs, fl, ok1 := s.locate(from)
	ts, tl, ok2 := s.locate(to)
	if ok1 && ok2 && fs == ts {
		s.groups[fs].RestoreLink(fl, tl)
	}
}

// SetLinkDelay stretches a same-shard link.
func (s *Service) SetLinkDelay(from, to types.NodeID, lo, hi int) {
	fs, fl, ok1 := s.locate(from)
	ts, tl, ok2 := s.locate(to)
	if ok1 && ok2 && fs == ts {
		s.groups[fs].SetLinkDelay(fl, tl, lo, hi)
	}
}

// ClearLinkDelay undoes SetLinkDelay under the same projection.
func (s *Service) ClearLinkDelay(from, to types.NodeID) {
	fs, fl, ok1 := s.locate(from)
	ts, tl, ok2 := s.locate(to)
	if ok1 && ok2 && fs == ts {
		s.groups[fs].ClearLinkDelay(fl, tl)
	}
}

// SetDropRate applies a uniform drop rate to every shard fabric.
func (s *Service) SetDropRate(p float64) {
	for _, g := range s.groups {
		g.SetDropRate(p)
	}
}

// ClearDropRate clears drop rates everywhere.
func (s *Service) ClearDropRate() {
	for _, g := range s.groups {
		g.ClearDropRate()
	}
}

// SetDupRate applies a uniform duplication rate to every shard fabric.
func (s *Service) SetDupRate(p float64) {
	for _, g := range s.groups {
		g.SetDupRate(p)
	}
}

// ClearDupRate clears duplication rates everywhere.
func (s *Service) ClearDupRate() {
	for _, g := range s.groups {
		g.ClearDupRate()
	}
}

// ArmByzantine arms a replica's canned interceptor; coordinator IDs are
// ignored (coordinators are trusted in 2PC).
func (s *Service) ArmByzantine(id types.NodeID, mode string) {
	if sh, local, ok := s.locate(id); ok {
		s.groups[sh].ArmByzantine(local, mode)
	}
}

// DisarmByzantine undoes ArmByzantine.
func (s *Service) DisarmByzantine(id types.NodeID) {
	if sh, local, ok := s.locate(id); ok {
		s.groups[sh].DisarmByzantine(local)
	}
}

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
