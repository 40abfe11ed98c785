package multipaxos

import (
	"testing"

	"fortyconsensus/internal/types"
)

// A node that has promised no ballot has heard no leader, so its first
// timer is the jitter alone; once it has promised one the
// ElectionTimeoutTicks base comes back (raft's rule, by ballot).

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
		heard := New(1, Config{Peers: trioPeers, ElectionTimeoutTicks: timeout, Seed: seed})
		heard.Step(Message{Kind: MsgHeartbeat, From: 2, To: 1, Ballot: lead})
		inBase(t, "heard a leader", seed, heard)
		for i := 0; i < 3; i++ { // the leader's later heartbeats re-arm it
			heard.Step(Message{Kind: MsgHeartbeat, From: 2, To: 1, Ballot: lead})
			inBase(t, "heard a heartbeat", seed, heard)
		}

		promised := New(1, Config{Peers: trioPeers, ElectionTimeoutTicks: timeout, Seed: seed})
		promised.Step(Message{Kind: MsgPrepare, From: 2, To: 1, Ballot: lead})
		inBase(t, "promised a ballot", seed, promised)

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
				t.Fatalf("seed %d: a passive node with no ballot armed %d ticks, want the jitter alone", seed, n.electionIn)
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
