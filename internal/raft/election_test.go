package raft

import (
	"fortyconsensus/internal/replog"
	"slices"
	"testing"

	"fortyconsensus/internal/types"
)

// A node that has seen no term has heard no leader, so its first timer is
// a jitter within one heartbeat interval; once it has seen a term the
// ElectionTimeoutTicks base and its jitter come back.

var trioPeers = []types.NodeID{1, 2, 3}

// nextCampaign ticks n until it starts an election and returns the tick
// it did, or 0 if it had not by limit.
func nextCampaign(n *Node, limit int) int {
	ran := n.elections
	for tick := 1; tick <= limit; tick++ {
		n.Tick()
		if n.elections > ran {
			return tick
		}
	}
	return 0
}

func TestFreshNodeCampaignsWithinTheJitter(t *testing.T) {
	const timeout, heartbeat = 30, 5
	for seed := uint64(1); seed <= 50; seed++ {
		n := New(1, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{HeartbeatTicks: heartbeat, ElectionTimeoutTicks: timeout}, Seed: seed})
		if at := nextCampaign(n, 2*timeout); at == 0 || at > heartbeat {
			t.Fatalf("seed %d: a fresh node first campaigned at tick %d, want 1..%d", seed, at, heartbeat)
		}
	}
}

func TestElectionTimerTakesTheBaseOnceATermIsSeen(t *testing.T) {
	const timeout = 30
	inBase := func(t *testing.T, what string, seed uint64, n *Node) {
		t.Helper()
		if n.electionIn < timeout || n.electionIn >= 2*timeout {
			t.Fatalf("seed %d, %s: election timer %d, want [%d, %d)", seed, what, n.electionIn, timeout, 2*timeout)
		}
	}
	for seed := uint64(1); seed <= 50; seed++ {
		heard := New(1, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: seed})
		heard.Step(Message{Kind: MsgAppend, From: 2, To: 1, Term: 1})
		inBase(t, "heard a leader", seed, heard)
		for i := 0; i < 3; i++ { // the leader's later heartbeats re-arm it
			heard.Step(Message{Kind: MsgAppend, From: 2, To: 1, Term: 1})
			inBase(t, "heard a heartbeat", seed, heard)
		}

		ran := New(1, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: seed})
		if nextCampaign(ran, timeout) == 0 {
			t.Fatalf("seed %d: a fresh node did not campaign within %d ticks", seed, timeout)
		}
		inBase(t, "campaigned once", seed, ran)
		if at := nextCampaign(ran, 2*timeout); ran.elections != 2 || at < timeout {
			t.Fatalf("seed %d: a lost candidate ran again %d ticks later, want at least %d", seed, at, timeout)
		}
	}
}

// A joiner's timer is as short as a fresh node's, and it still never
// campaigns: it re-arms instead, until it hears a leader.
func TestPassiveFreshNodeNeverCampaigns(t *testing.T) {
	const timeout, heartbeat = 30, 5
	for seed := uint64(1); seed <= 20; seed++ {
		n := New(3, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{HeartbeatTicks: heartbeat, ElectionTimeoutTicks: timeout}, Seed: seed, Passive: true})
		for tick := 0; tick < 20*timeout; tick++ {
			n.Tick()
			if n.electionIn > heartbeat {
				t.Fatalf("seed %d: a passive node at term 0 armed %d ticks, want at most %d", seed, n.electionIn, heartbeat)
			}
			for _, m := range n.Drain() {
				t.Fatalf("seed %d: a passive node sent %v", seed, m.Kind)
			}
		}
		if n.elections != 0 || n.term != 0 {
			t.Fatalf("seed %d: a passive node ran %d elections, term %d", seed, n.elections, n.term)
		}
	}
}

// A node brought back from its journal has seen a term, so it waits the
// full base: a fresh node's short timer, armed by New, must not survive
// Restore, or the restored node would unseat a live leader.
func TestRestoredNodeWaitsTheFullBase(t *testing.T) {
	const timeout = 30
	dir := t.TempDir()
	old := New(2, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: 1})
	old.Step(Message{Kind: MsgAppend, From: 1, To: 2, Term: 3, Entries: []LogEntry{{Term: 3, Val: types.Value("x")}}})
	if err := openPersister(t, dir).Sync(old); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		n := New(2, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: seed})
		if err := openPersister(t, dir).Restore(n); err != nil {
			t.Fatal(err)
		}
		if n.term != 3 {
			t.Fatalf("restored term %d, want 3", n.term)
		}
		if n.electionIn < timeout {
			t.Fatalf("seed %d: a restored node at term %d armed %d ticks, want at least %d", seed, n.term, n.electionIn, timeout)
		}
	}
}

// bootElections boots a fresh group of size nodes on each of seeds
// 1..runs, on runner's default fabric (every message takes one tick),
// and returns the median, longest and summed wait in ticks for the first
// leader, and on how many seeds the first round split (the first leader
// was elected in a later one).
func bootElections(t *testing.T, size, runs int) (median, longest, sum, split int) {
	t.Helper()
	ticks := make([]int, 0, runs)
	for seed := uint64(1); seed <= uint64(runs); seed++ {
		c := NewCluster(size, nil, Config{Seed: seed}, nil)
		lead := c.WaitLeader(1000)
		if lead == nil {
			t.Fatalf("%d nodes, seed %d: no leader", size, seed)
		}
		ticks = append(ticks, c.Now())
		sum += c.Now()
		if lead.term > 1 {
			split++
		}
	}
	slices.Sort(ticks)
	return ticks[runs/2], ticks[runs-1], sum, split
}

// The boot election, as exact counts over 1000 seeds: see DESIGN.md
// "Leader election at boot" for these beside the rule before.
func TestBootElectionPinned(t *testing.T) {
	for _, tc := range []struct{ size, median, longest, sum, split int }{
		{3, 4, 60, 5696, 50},
		{5, 3, 46, 3932, 15},
	} {
		median, longest, sum, split := bootElections(t, tc.size, 1000)
		t.Logf("%d nodes: first leader at tick %d median, %d longest, %d summed; %d of 1000 first rounds split",
			tc.size, median, longest, sum, split)
		if median != tc.median || longest != tc.longest || sum != tc.sum || split != tc.split {
			t.Errorf("%d nodes: median %d, longest %d, sum %d, split %d; pinned %d, %d, %d, %d",
				tc.size, median, longest, sum, split, tc.median, tc.longest, tc.sum, tc.split)
		}
	}
}

// A higher term alone does not re-arm a follower's timer: only its
// leader's message or a vote it grants does (Raft's Figure 2). A lagging
// node that campaigns again and again, and cannot win, otherwise holds
// off the up-to-date nodes that could.
func TestRejectedCandidateDoesNotHoldOffAFollower(t *testing.T) {
	const timeout = 30
	ran := 0
	for seed := uint64(1); seed <= 20; seed++ {
		n := New(1, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: seed})
		n.Step(Message{Kind: MsgAppend, From: 2, To: 1, Term: 1, Entries: []LogEntry{{Term: 1, Val: types.Value("x")}}})
		// A RequestVote reaches a follower only once its leader has been
		// quiet for an election timeout (the voting rule, heeding). A seed
		// whose jitter draws 0 campaigns at that very tick, as a follower
		// should, and has no countdown left to test.
		for range timeout {
			n.Tick()
		}
		if n.heeding(3) {
			t.Fatalf("seed %d: still heeding its leader an election timeout after its append", seed)
		}
		if n.role != follower {
			continue
		}
		ran++
		armed := n.electionIn
		// A candidate whose log lacks the entry: the vote is refused.
		n.Step(Message{Kind: MsgRequestVote, From: 3, To: 1, Term: 4})
		if n.term != 4 || n.votedFor != -1 || n.electionIn != armed {
			t.Fatalf("seed %d: after a refused vote at term 4: term %d, voted %v, timer %d (was %d)", seed, n.term, n.votedFor, n.electionIn, armed)
		}
		// A candidate it votes for re-arms it.
		n.Step(Message{Kind: MsgRequestVote, From: 3, To: 1, Term: 5, LastLogIndex: 1, LastLogTerm: 1})
		if n.votedFor != 3 || n.electionIn < timeout {
			t.Fatalf("seed %d: after a granted vote: voted %v, timer %d", seed, n.votedFor, n.electionIn)
		}
	}
	if ran < 18 {
		t.Fatalf("only %d of 20 seeds were still following an election timeout after the append", ran)
	}
}
