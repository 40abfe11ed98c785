package multipaxos

import (
	"fortyconsensus/internal/replog"
	"slices"
	"testing"

	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// A node that has promised no ballot has heard no leader, so its first
// timer is a jitter within one heartbeat interval; once it has promised
// one the ElectionTimeoutTicks base and its jitter come back (raft's
// rule, by ballot).

var trioPeers = []types.NodeID{1, 2, 3}

// nextCampaign ticks n until it starts an election and returns the tick
// it did, or 0 if it had not by limit.
func nextCampaign(n *Node, limit int) int {
	ran := n.Elections()
	for tick := 1; tick <= limit; tick++ {
		n.Tick()
		if n.Elections() > ran {
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

func TestElectionTimerTakesTheBaseOnceABallotIsSeen(t *testing.T) {
	const timeout = 30
	inBase := func(t *testing.T, what string, seed uint64, n *Node) {
		t.Helper()
		if n.electionIn < timeout || n.electionIn >= 2*timeout {
			t.Fatalf("seed %d, %s: election timer %d, want [%d, %d)", seed, what, n.electionIn, timeout, 2*timeout)
		}
	}
	lead := types.Ballot{Num: 1, Owner: 2}
	for seed := uint64(1); seed <= 50; seed++ {
		heard := New(1, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: seed})
		heard.Step(Message{Kind: MsgAccept, From: 2, To: 1, Ballot: lead})
		inBase(t, "heard a leader", seed, heard)
		for i := 0; i < 3; i++ { // the leader's later heartbeats re-arm it
			heard.Step(Message{Kind: MsgAccept, From: 2, To: 1, Ballot: lead})
			inBase(t, "heard a heartbeat", seed, heard)
		}

		promised := New(1, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: seed})
		promised.Step(Message{Kind: MsgPrepare, From: 2, To: 1, Ballot: lead})
		inBase(t, "promised a ballot", seed, promised)

		ran := New(1, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: seed})
		if nextCampaign(ran, timeout) == 0 {
			t.Fatalf("seed %d: a fresh node did not campaign within %d ticks", seed, timeout)
		}
		inBase(t, "campaigned once", seed, ran)
		if at := nextCampaign(ran, 2*timeout); ran.Elections() != 2 || at < timeout {
			t.Fatalf("seed %d: a lost candidate ran again %d ticks later, want at least %d", seed, at, timeout)
		}
	}
}

// A node restored from its journal has promised a ballot: it waits the
// full base, as raft's restored node does, so it cannot depose a live
// leader the moment it is back.
func TestRestoredNodeWaitsTheFullBase(t *testing.T) {
	const timeout = 30
	dir := t.TempDir()
	old := New(2, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: 1})
	old.Step(Message{Kind: MsgAccept, From: 1, To: 2, Ballot: types.Ballot{Num: 3, Owner: 1}, Slot: 1, Val: types.Value("x")})
	if err := openPersister(t, dir).Sync(old); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		n := New(2, Config{Peers: trioPeers, ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: seed})
		if err := openPersister(t, dir).Restore(n); err != nil {
			t.Fatal(err)
		}
		if n.ballot != old.ballot {
			t.Fatalf("restored ballot %v, want %v", n.ballot, old.ballot)
		}
		if n.electionIn < timeout {
			t.Fatalf("seed %d: a restored node that promised %v armed %d ticks, want at least %d", seed, n.ballot, n.electionIn, timeout)
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
				t.Fatalf("seed %d: a passive node with no ballot armed %d ticks, want at most %d", seed, n.electionIn, heartbeat)
			}
			for _, m := range n.Drain() {
				t.Fatalf("seed %d: a passive node sent %v", seed, m.Kind)
			}
		}
		if n.Elections() != 0 || !n.ballot.IsZero() {
			t.Fatalf("seed %d: a passive node ran %d elections, ballot %v", seed, n.Elections(), n.ballot)
		}
	}
}

// A member removed by a chosen config must learn that it was: the leader
// pushes it everything through the slot that removed it, so it never
// times out into a Prepare that would depose the leader.
func TestRemovedMemberNeverCampaigns(t *testing.T) {
	const timeout = 30
	for _, size := range []int{3, 5} {
		for seed := uint64(1); seed <= 40; seed++ {
			c := NewCluster(size, nil, Config{ElectorConfig: replog.ElectorConfig{ElectionTimeoutTicks: timeout}, Seed: seed}, kvSM)
			lead := c.WaitLeader(500)
			if lead == nil {
				t.Fatalf("%d nodes, seed %d: no leader", size, seed)
			}
			removed := c.Nodes[(int(lead.id)+1)%size]
			elections, ballot := removed.Elections(), lead.ballot
			lead.Submit(confVal(snapshot.ConfRemove, removed.id))
			c.RunPumped(10 * 2 * timeout) // ten of the longest timeouts
			if slices.Contains(lead.Members(), removed.id) {
				t.Fatalf("%d nodes, seed %d: node %v was not removed", size, seed, removed.id)
			}
			if removed.Elections() != elections || !lead.IsLeader() || lead.ballot != ballot {
				t.Fatalf("%d nodes, seed %d: removed node %v ran %d elections; leader %v holds ballot %v, had %v",
					size, seed, removed.id, removed.Elections()-elections, lead.IsLeader(), lead.ballot, ballot)
			}
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
		if lead.ballot.Num > 1 {
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
		{3, 4, 7, 3832, 0},
		{5, 3, 6, 3403, 0},
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
