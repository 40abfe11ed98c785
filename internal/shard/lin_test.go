package shard

import (
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/shard/histcheck"
	"fortyconsensus/internal/types"
)

// TestKVHistoryLinearizableUnderNemesis drives a KV operation stream
// through the service while a deterministic fault schedule crashes
// replicas and partitions shard fabrics, recording every operation's
// invocation/response window, then asks histcheck for a linearization.
// Leader failovers, request retries, and smr dedup all hide inside the
// windows; the checker proves none of them invented or lost a write.
// Gets are served beside the log, and one partition cuts the leader of
// alpha's shard off while it still claims the title: its successor makes
// the next write, then crashes as the partition heals, so the next Get
// reaches the deposed leader alone — which, confirming on its own, would
// read the value from before that write.
func TestKVHistoryLinearizableUnderNemesis(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) { checkHistoryUnderNemesis(t, backend) })
	}
}

// claimants lists the live replicas of g that claim leadership.
func claimants(g Group) []types.NodeID {
	var out []types.NodeID
	add := func(i int, leads, crashed bool) {
		if leads && !crashed {
			out = append(out, types.NodeID(i))
		}
	}
	switch g := g.(type) {
	case *group[raft.Message, *raft.Node]:
		for i, n := range g.Nodes {
			add(i, n.IsLeader(), g.Crashed(types.NodeID(i)))
		}
	case *group[multipaxos.Message, *multipaxos.Node]:
		for i, n := range g.Nodes {
			add(i, n.IsLeader(), g.Crashed(types.NodeID(i)))
		}
	}
	return out
}

func checkHistoryUnderNemesis(t *testing.T, backend string) {
	s := NewService(Config{Shards: 2, Seed: 31, Backend: backend})
	s.Run(60)
	var h histcheck.History

	// Fault schedule keyed by operation index: always leaves each
	// shard a live majority so every operation eventually answers.
	sh := s.Map().Shard("alpha")
	global := func(local types.NodeID) types.NodeID { return types.NodeID(sh*3) + local }
	var deposed, successor types.NodeID
	isolate := func() {
		lead := claimants(s.Groups()[sh])
		for i := 0; i < 100 && len(lead) != 1; i++ { // a deposed claimant hears of it
			s.Step()
			lead = claimants(s.Groups()[sh])
		}
		if len(lead) != 1 {
			t.Fatalf("shard %d has claimants %v before the partition, want one", sh, lead)
		}
		deposed = lead[0]
		var rest []types.NodeID
		for r := types.NodeID(0); r < 3; r++ {
			if r != deposed {
				rest = append(rest, global(r))
			}
		}
		s.Partition([]types.NodeID{global(deposed)}, rest)
	}
	failOver := func() {
		lead := claimants(s.Groups()[sh])
		if len(lead) != 2 {
			t.Fatalf("shard %d has claimants %v after a write behind the partition, want the deposed leader and its successor", sh, lead)
		}
		successor = lead[0] + lead[1] - deposed
		s.Crash(global(successor))
		s.Heal()
	}
	faults := map[int]func(){
		2:  func() { s.Crash(types.NodeID(0)) },
		4:  func() { s.Partition([]types.NodeID{3}, []types.NodeID{4, 5}) },
		6:  func() { s.Heal(); s.Restart(types.NodeID(0)) },
		8:  func() { s.Crash(types.NodeID(4)) },
		10: func() { s.Restart(types.NodeID(4)) },
		12: isolate,
		13: failOver,
		17: func() { s.Restart(global(successor)) },
	}

	ops := []kvstore.Command{
		kvstore.Put("alpha", []byte("1")),
		kvstore.Get("alpha"),
		kvstore.Incr("counter", 2),
		kvstore.Incr("counter", 3),
		kvstore.Get("counter"),
		kvstore.CAS("alpha", []byte("1"), []byte("2")),
		kvstore.Get("alpha"),
		kvstore.Put("beta", []byte("b")),
		kvstore.Get("beta"),
		kvstore.Delete("alpha"),
		kvstore.Get("alpha"),
		kvstore.Get("beta"),
		kvstore.Put("alpha", []byte("x")), // alpha's leader is cut off
		kvstore.Get("alpha"),              // its successor is down, it is back
		kvstore.Incr("counter", 1),
		kvstore.Get("alpha"),
		kvstore.Get("counter"),
		kvstore.Get("beta"),
		kvstore.Get("alpha"),
		kvstore.CAS("alpha", []byte("x"), []byte("y")),
		kvstore.Get("alpha"),
		kvstore.Get("counter"),
	}
	for i, cmd := range ops {
		if f, ok := faults[i]; ok {
			f()
		}
		// One tick past the last answer: histcheck orders an operation
		// after another only if it starts strictly after that one ended.
		s.Step()
		id := h.Begin(cmd, s.now)
		seq := s.SubmitKVAt(s.pm.Shard(cmd.Key), cmd)
		answered := false
		for tick := 0; tick < 3000 && !answered; tick++ {
			s.Step()
			for _, r := range s.TakeKVReplies() {
				if r.SeqNo != seq {
					continue
				}
				if r.Result.Equal(ReplyLocked) {
					h.EndRefused(id, s.now)
				} else {
					h.End(id, r.Result, s.now)
				}
				answered = true
			}
		}
		if !answered {
			t.Fatalf("op %d (%v %q) unanswered after 3000 ticks", i, cmd.Op, cmd.Key)
		}
	}
	if err := h.Check(); err != nil {
		t.Fatalf("history not linearizable: %v", err)
	}
	if h.Len() != len(ops) {
		t.Fatalf("recorded %d ops, want %d", h.Len(), len(ops))
	}
}

// A Get is confirmed, not logged: a stream of them adds no decision to
// any replica of a raft or a Multi-Paxos group. (PBFT's still orders
// them.)
func TestGetsAddNoDecisions(t *testing.T) {
	for _, backend := range []string{BackendRaft, BackendMultiPaxos} {
		t.Run(backend, func(t *testing.T) {
			s := NewService(Config{Shards: 1, Seed: 5, Backend: backend})
			s.Run(100)
			readKey(t, s, 0, "k", 400)
			s.Run(50)
			s.TakeDecisions(0)
			for i := 0; i < 20; i++ {
				if got := readKey(t, s, 0, "k", 400); !got.Equal(kvstore.ReplyNotFound) {
					t.Fatalf("get %d: %q", i, got)
				}
			}
			for r, ds := range s.TakeDecisions(0) {
				if len(ds) != 0 {
					t.Fatalf("20 gets: replica %d decided %d slots", r, len(ds))
				}
			}
		})
	}
}
