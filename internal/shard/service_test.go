package shard

import (
	"fortyconsensus/internal/det"
	"testing"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// waitTx steps until tx finishes, failing after maxTicks.
func waitTx(t *testing.T, s *Service, tx commit.TxID, maxTicks int) commit.Outcome {
	t.Helper()
	for i := 0; i < maxTicks; i++ {
		s.Step()
		if done, o := s.TxDone(tx); done {
			return o
		}
	}
	t.Fatalf("tx %d unresolved after %d ticks (unresolved=%d)", tx, maxTicks, s.Unresolved())
	return commit.Pending
}

// readKey reads key from an explicit shard via the pass-through client.
func readKey(t *testing.T, s *Service, sh int, key string, maxTicks int) types.Value {
	t.Helper()
	seq := s.SubmitKVAt(sh, kvstore.Get(key))
	for i := 0; i < maxTicks; i++ {
		s.Step()
		for _, r := range s.TakeKVReplies() {
			if r.SeqNo == seq {
				return r.Result
			}
		}
	}
	t.Fatalf("no reply for Get(%q) on shard %d after %d ticks", key, sh, maxTicks)
	return nil
}

func TestCrossShardCommit(t *testing.T) {
	s := NewService(Config{Shards: 2, Seed: 7})
	s.Run(50) // let leaders elect
	tx := s.SubmitPerShard(map[int][]kvstore.Command{
		0: {kvstore.Put("a", []byte("1"))},
		1: {kvstore.Put("b", []byte("2"))},
	})
	if o := waitTx(t, s, tx, 600); o != commit.Committed {
		t.Fatalf("outcome = %v, want Committed", o)
	}
	if got := readKey(t, s, 0, "a", 400); !got.Equal(types.Value("1")) {
		t.Fatalf("shard 0 a = %q, want 1", got)
	}
	if got := readKey(t, s, 1, "b", 400); !got.Equal(types.Value("2")) {
		t.Fatalf("shard 1 b = %q, want 2", got)
	}
	m := s.Metrics()
	if m.Commits.Get("shard0") != 1 || m.Commits.Get("shard1") != 1 {
		t.Fatalf("per-shard commits = %d/%d, want 1/1",
			m.Commits.Get("shard0"), m.Commits.Get("shard1"))
	}
	if m.Cross != 1 {
		t.Fatalf("cross = %d, want 1", m.Cross)
	}
}

func TestSingleShardFastPath(t *testing.T) {
	s := NewService(Config{Shards: 2, Seed: 11})
	s.Run(50)
	tx := s.SubmitPerShard(map[int][]kvstore.Command{
		1: {kvstore.Put("x", []byte("9")), kvstore.Put("y", []byte("8"))},
	})
	if o := waitTx(t, s, tx, 600); o != commit.Committed {
		t.Fatalf("outcome = %v, want Committed", o)
	}
	if got := readKey(t, s, 1, "y", 400); !got.Equal(types.Value("8")) {
		t.Fatalf("y = %q, want 8", got)
	}
	if s.Metrics().Cross != 0 {
		t.Fatalf("cross = %d, want 0", s.Metrics().Cross)
	}
}

func TestConflictingTxnsNeverMix(t *testing.T) {
	s := NewService(Config{Shards: 2, Seed: 13})
	s.Run(50)
	// tx1 and tx2 race on shard 1's key "shared"; tx2's prepare lands
	// while tx1's lock is held, so tx2 must abort on BOTH shards.
	tx1 := s.SubmitPerShard(map[int][]kvstore.Command{
		0: {kvstore.Put("a", []byte("1"))},
		1: {kvstore.Put("shared", []byte("tx1"))},
	})
	s.Step()
	tx2 := s.SubmitPerShard(map[int][]kvstore.Command{
		0: {kvstore.Put("b", []byte("2"))},
		1: {kvstore.Put("shared", []byte("tx2"))},
	})
	o1 := waitTx(t, s, tx1, 800)
	o2 := waitTx(t, s, tx2, 800)
	if o1 != commit.Committed {
		t.Fatalf("tx1 = %v, want Committed", o1)
	}
	if o2 != commit.Aborted {
		t.Fatalf("tx2 = %v, want Aborted", o2)
	}
	// Atomicity across shards: tx2 must not have applied on shard 0.
	if got := readKey(t, s, 0, "b", 400); !got.Equal(kvstore.ReplyNotFound) {
		t.Fatalf("aborted tx2's write leaked: b = %q", got)
	}
	if got := readKey(t, s, 1, "shared", 400); !got.Equal(types.Value("tx1")) {
		t.Fatalf("shared = %q, want tx1", got)
	}
	s.Run(200) // let followers catch up to the leaders' applied state
	for _, g := range s.Groups() {
		for _, st := range g.Stores() {
			if locks := det.SortedKeys(st.locks); len(locks) != 0 {
				t.Fatalf("locks leaked: %v", locks)
			}
		}
	}
}

func TestOutcomesConsistentAcrossBackends(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos, BackendPBFT} {
		t.Run(backend, func(t *testing.T) {
			s := NewService(Config{Shards: 2, Backend: backend, Seed: 17})
			s.Run(80)
			tx := s.SubmitPerShard(map[int][]kvstore.Command{
				0: {kvstore.Put("k0", []byte("v"))},
				1: {kvstore.Put("k1", []byte("v"))},
			})
			if o := waitTx(t, s, tx, 1200); o != commit.Committed {
				t.Fatalf("outcome = %v, want Committed", o)
			}
		})
	}
}

func TestCoordinatorCrashRecovery(t *testing.T) {
	s := NewService(Config{Shards: 2, Seed: 23})
	s.Run(50)
	tx := s.SubmitPerShard(map[int][]kvstore.Command{
		0: {kvstore.Put("r0", []byte("v"))},
		1: {kvstore.Put("r1", []byte("v"))},
	})
	// Freeze the primary coordinator right after it fires the
	// prepares: the recovery coordinator must adopt and finish the
	// transaction without losing or splitting the decision.
	s.Run(2)
	s.Crash(s.coordBase())
	o := waitTx(t, s, tx, 1500)
	if o != commit.Committed && o != commit.Aborted {
		t.Fatalf("outcome = %v, want a decision", o)
	}
	s.Run(300) // followers catch up
	// Both shards latched the same fate.
	for _, g := range s.Groups() {
		for r, st := range g.Stores() {
			if got := st.outcomes[tx]; got != o {
				t.Fatalf("replica %d outcome %v != service outcome %v", r, got, o)
			}
			if locks := det.SortedKeys(st.locks); len(locks) != 0 {
				t.Fatalf("locks leaked after recovery: %v", locks)
			}
		}
	}
}

func TestLeaderCrashDuringPrepare(t *testing.T) {
	s := NewService(Config{Shards: 2, Seed: 29})
	s.Run(60)
	tx := s.SubmitPerShard(map[int][]kvstore.Command{
		0: {kvstore.Put("p0", []byte("v"))},
		1: {kvstore.Put("p1", []byte("v"))},
	})
	s.Run(3)
	// Crash one replica per shard mid-prepare; the groups re-elect and
	// the latched protocol state drives the transaction to one decision.
	s.Crash(types.NodeID(0))
	s.Crash(types.NodeID(3))
	s.Run(200)
	s.Restart(types.NodeID(0))
	s.Restart(types.NodeID(3))
	o := waitTx(t, s, tx, 2000)
	if o != commit.Committed && o != commit.Aborted {
		t.Fatalf("outcome = %v, want a decision", o)
	}
	s.Run(300) // followers catch up
	for _, g := range s.Groups() {
		for r, st := range g.Stores() {
			if got := st.outcomes[tx]; got != o {
				t.Fatalf("replica %d outcome %v != service outcome %v", r, got, o)
			}
		}
	}
}

func TestPartitionMapStable(t *testing.T) {
	pm := NewPartitionMap(4)
	for _, k := range []string{"", "a", "key-000001", "txm-12"} {
		s1, s2 := pm.Shard(k), pm.Shard(k)
		if s1 != s2 || s1 < 0 || s1 >= 4 {
			t.Fatalf("Shard(%q) unstable or out of range: %d/%d", k, s1, s2)
		}
	}
	if NewPartitionMap(0).shards != 1 {
		t.Fatal("zero shards must clamp to 1")
	}
}

// heldGroup holds back every reply to the primary coordinator's
// sessions while hold.on is set, and hands them all over once it is
// cleared: a primary that is slow, not crashed.
type heldGroup struct {
	Group
	hold *heldReplies
}

type heldReplies struct {
	on    bool
	queue []types.Reply
}

func (g heldGroup) Pump() ([]types.Reply, [][]types.Decision) {
	replies, decided := g.Group.Pump()
	var pass []types.Reply
	for _, r := range replies {
		if r.Client >= coordClientBase && r.Client < coordClientBase+coordSessionSpan {
			g.hold.queue = append(g.hold.queue, r)
		} else {
			pass = append(pass, r)
		}
	}
	if !g.hold.on {
		pass = append(pass, g.hold.queue...)
		g.hold.queue = nil
	}
	return pass, decided
}

// Two coordinators drive one transaction at once: the primary, deaf to
// its replies until the recovery coordinator has adopted and finished
// the transaction, times out and sends TxVoteAbort meanwhile. The sweep
// begins the primary late (its vote-abort lands between the recovery's
// prepare and its commit) or keeps shard 1 down (the vote-abort and the
// recovery's prepare race in shard 1's log). Whichever way, both
// coordinators compute one outcome and every replica of both shards
// latches it: a vote-abort after a prepare reads the yes back, and a
// prepare after a vote-abort votes no.
func TestDuelingCoordinatorsNeverSplit(t *testing.T) {
	outcomes := map[commit.Outcome]int{}
	for late := 0; late <= 100; late += 2 {
		outcomes[duel(t, late, 0)]++
	}
	for down := 100; down <= 300; down += 4 {
		outcomes[duel(t, 0, down)]++
	}
	t.Logf("%v", outcomes)
	if outcomes[commit.Committed] == 0 || outcomes[commit.Aborted] == 0 {
		t.Fatalf("outcomes over the sweep: %v, want both", outcomes)
	}
}

// duel runs one dueling-coordinator transaction: the primary Begins
// late ticks after the submit, shard 1's replicas are down for the
// first down ticks, and the primary's replies are held until the
// transaction is done. It fails t unless both coordinators and every
// replica agree, and returns the outcome.
func duel(t *testing.T, late, down int) commit.Outcome {
	t.Helper()
	s := NewService(Config{Shards: 2, Seed: 31})
	hold := &heldReplies{on: true}
	for i, g := range s.groups {
		s.groups[i] = heldGroup{g, hold}
	}
	s.Run(50)
	s.Crash(s.coordBase())
	for id := types.NodeID(3); id < 6; id++ {
		s.Crash(id)
	}
	tx := s.SubmitPerShard(map[int][]kvstore.Command{
		0: {kvstore.Put("d0", []byte("v"))},
		1: {kvstore.Put("d1", []byte("v"))},
	})
	for now := 0; now <= max(late, down) || !s.txns[tx].done; now++ {
		if now == late {
			s.Restart(s.coordBase()) // the primary Begins at this Step
		}
		if now == down {
			for id := types.NodeID(3); id < 6; id++ {
				s.Restart(id)
			}
		}
		if now > 2000 {
			t.Fatalf("late=%d down=%d: tx %d unresolved", late, down, tx)
		}
		s.Step()
	}
	_, o := s.TxDone(tx)
	hold.on = false
	primary, recovery := s.coords[0].txns[tx], s.coords[1].txns[tx]
	for i := 0; i < 600 && primary.phase != phDone; i++ {
		s.Step()
	}
	if primary.phase != phDone || primary.outcome != o || recovery == nil || recovery.outcome != o {
		t.Fatalf("late=%d down=%d: primary %v (phase %d), recovery %+v, service %v", late, down, primary.outcome, primary.phase, recovery, o)
	}
	s.Run(300) // followers catch up
	for sh, g := range s.Groups() {
		for r, st := range g.Stores() {
			if got := st.outcomes[tx]; got != o {
				t.Fatalf("late=%d down=%d: shard %d replica %d latched %v, the coordinators %v", late, down, sh, r, got, o)
			}
			if locks := det.SortedKeys(st.locks); len(locks) != 0 {
				t.Fatalf("late=%d down=%d: locks leaked: %v", late, down, locks)
			}
		}
	}
	return o
}
