package raft

import (
	"testing"

	"fortyconsensus/internal/types"
)

// A node that has seen no term has heard no leader, so its first timer is
// the jitter alone; once it has seen a term the ElectionTimeoutTicks base
// comes back.

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
	const timeout = 30
	early := 0
	for seed := uint64(1); seed <= 50; seed++ {
		n := New(1, Config{Peers: trioPeers, ElectionTimeoutTicks: timeout, Seed: seed})
		at := nextCampaign(n, 2*timeout)
		if at == 0 || at > timeout {
			t.Fatalf("seed %d: a fresh node first campaigned at tick %d, want 1..%d", seed, at, timeout)
		}
		if at < timeout {
			early++
		}
	}
	if early == 0 {
		t.Fatalf("no fresh node of 50 campaigned before tick %d: the timer still waits the base", timeout)
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
		heard := New(1, Config{Peers: trioPeers, ElectionTimeoutTicks: timeout, Seed: seed})
		heard.Step(Message{Kind: MsgAppend, From: 2, To: 1, Term: 1})
		inBase(t, "heard a leader", seed, heard)
		for i := 0; i < 3; i++ { // the leader's later heartbeats re-arm it
			heard.Step(Message{Kind: MsgAppend, From: 2, To: 1, Term: 1})
			inBase(t, "heard a heartbeat", seed, heard)
		}

		ran := New(1, Config{Peers: trioPeers, ElectionTimeoutTicks: timeout, Seed: seed})
		if nextCampaign(ran, timeout) == 0 {
			t.Fatalf("seed %d: a fresh node did not campaign within %d ticks", seed, timeout)
		}
		inBase(t, "campaigned once", seed, ran)
		if at := nextCampaign(ran, 2*timeout); ran.Elections() != 2 || at < timeout {
			t.Fatalf("seed %d: a lost candidate ran again %d ticks later, want at least %d", seed, at, timeout)
		}
	}
}

// A joiner's timer is as short as a fresh node's, and it still never
// campaigns: it re-arms instead, until it hears a leader.
func TestPassiveFreshNodeNeverCampaigns(t *testing.T) {
	const timeout = 30
	for seed := uint64(1); seed <= 20; seed++ {
		n := New(3, Config{Peers: trioPeers, ElectionTimeoutTicks: timeout, Seed: seed, Passive: true})
		for tick := 0; tick < 20*timeout; tick++ {
			n.Tick()
			if n.electionIn > timeout {
				t.Fatalf("seed %d: a passive node at term 0 armed %d ticks, want the jitter alone", seed, n.electionIn)
			}
			for _, m := range n.Drain() {
				t.Fatalf("seed %d: a passive node sent %v", seed, m.Kind)
			}
		}
		if n.Elections() != 0 || n.term != 0 {
			t.Fatalf("seed %d: a passive node ran %d elections, term %d", seed, n.Elections(), n.term)
		}
	}
}

// A node brought back from its journal has seen a term, so it waits the
// full base: a fresh node's short timer, armed by New, must not survive
// Restore, or the restored node would unseat a live leader.
func TestRestoredNodeWaitsTheFullBase(t *testing.T) {
	const timeout = 30
	dir := t.TempDir()
	old := New(2, Config{Peers: trioPeers, ElectionTimeoutTicks: timeout, Seed: 1})
	old.Step(Message{Kind: MsgAppend, From: 1, To: 2, Term: 3, Entries: []LogEntry{{Term: 3, Val: types.Value("x")}}})
	if err := openPersister(t, dir).Sync(old); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		n := New(2, Config{Peers: trioPeers, ElectionTimeoutTicks: timeout, Seed: seed})
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
