package multipaxos

import (
	"testing"

	"fortyconsensus/internal/types"
	"fortyconsensus/internal/types/valuetest"
)

// TestCommitBatchOwnership pins at runtime what the valueown analyzer
// enforces statically: an acceptor copies what it needs out of a loaned
// Accept batch and never writes the shared Value bytes in place.
func TestCommitBatchOwnership(t *testing.T) {
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}, Seed: 5})
	var g valuetest.Guard
	batch := []Entry{
		{Term: 1 << 16, Val: g.Publish("slot 1", types.Value("alpha"))},
		{Term: 1 << 16, Val: g.Publish("slot 2", types.Value("beta"))},
	}
	n.Step(Message{Kind: MsgAccept, From: 0, To: 1, Ballot: types.Ballot{Num: 1}, Entries: batch, Commit: 2})
	if n.CommitFrontier() != 2 {
		t.Fatalf("commit frontier = %d, want 2", n.CommitFrontier())
	}

	// The sender reuses its buffer after the call returns; the learner's
	// chosen values must be unaffected.
	valuetest.Poison(batch, Entry{Term: 9, Val: types.Value("poison")})
	ds := n.TakeDecisions()
	if len(ds) != 2 ||
		ds[0].Slot != 1 || !ds[0].Val.Equal(types.Value("alpha")) ||
		ds[1].Slot != 2 || !ds[1].Val.Equal(types.Value("beta")) {
		t.Fatalf("decisions rewritten through the loaned batch slice: %+v", ds)
	}
	g.Check(t)
}
