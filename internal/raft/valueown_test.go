package raft

import (
	"testing"

	"fortyconsensus/internal/types"
	"fortyconsensus/internal/types/valuetest"
)

// TestAppendBatchOwnership pins at runtime what the valueown analyzer
// enforces statically: a follower copies the entry headers out of a
// loaned AppendEntries batch (sharing only the immutable Value bytes),
// and never writes the shared bytes in place.
func TestAppendBatchOwnership(t *testing.T) {
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 7})
	var g valuetest.Guard
	batch := []LogEntry{
		{Term: 1, Val: g.Publish("entry 1", types.Value("alpha"))},
		{Term: 1, Val: g.Publish("entry 2", types.Value("beta"))},
	}
	n.Step(Message{Kind: MsgAppend, From: 0, To: 1, Term: 1, PrevIndex: 0, PrevTerm: 0, Entries: batch})
	if got := n.lastIndex(); got != 2 {
		t.Fatalf("lastIndex = %d, want 2", got)
	}

	// The leader reuses its buffer after the call returns. A follower
	// that retained the loaned slice sees its log rewritten under it.
	valuetest.Poison(batch, LogEntry{Term: 99, Val: types.Value("poison")})
	log := n.log
	if log[1].Term != 1 || !log[1].Val.Equal(types.Value("alpha")) ||
		log[2].Term != 1 || !log[2].Val.Equal(types.Value("beta")) {
		t.Fatalf("log rewritten through the loaned batch slice: %+v", log[1:])
	}

	// Committing and applying must not touch the shared bytes either.
	n.Step(Message{Kind: MsgAppend, From: 0, To: 1, Term: 1, PrevIndex: 2, PrevTerm: 1, LeaderCommit: 2})
	if n.CommitFrontier() != 2 {
		t.Fatalf("commit frontier = %d, want 2", n.CommitFrontier())
	}
	n.TakeDecisions()
	g.Check(t)
}
