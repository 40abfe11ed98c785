package shard

import (
	"fortyconsensus/internal/det"
	"testing"

	"fortyconsensus/internal/commit"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

func put(k, v string) kvstore.Command { return kvstore.Put(k, []byte(v)) }

func TestStorePrepareCommitReleasesLocks(t *testing.T) {
	s := NewStore()
	if got := s.Apply(Prepare(1, []kvstore.Command{put("a", "1"), put("b", "2")}).Encode()); !got.Equal(ReplyVoteCommit) {
		t.Fatalf("prepare vote = %q", got)
	}
	if locks := det.SortedKeys(s.locks); len(locks) != 2 {
		t.Fatalf("locks = %v, want a and b", locks)
	}
	// Staged writes are invisible until commit.
	if got := s.Apply(kvstore.Get("a").Encode()); !got.Equal(kvstore.ReplyNotFound) {
		t.Fatalf("staged write visible before commit: %q", got)
	}
	if got := s.Apply(Commit(1).Encode()); !got.Equal(ReplyTxOK) {
		t.Fatalf("commit = %q", got)
	}
	if locks := det.SortedKeys(s.locks); len(locks) != 0 {
		t.Fatalf("locks leaked after commit: %v", locks)
	}
	if got := s.Apply(kvstore.Get("a").Encode()); !got.Equal(types.Value("1")) {
		t.Fatalf("committed write lost: %q", got)
	}
	if s.outcomes[1] != commit.Committed {
		t.Fatalf("outcome = %v", s.outcomes[1])
	}
}

func TestStoreAbortDiscardsStagedWrites(t *testing.T) {
	s := NewStore()
	s.Apply(Prepare(2, []kvstore.Command{put("k", "staged")}).Encode())
	if got := s.Apply(Abort(2).Encode()); !got.Equal(ReplyTxOK) {
		t.Fatalf("abort = %q", got)
	}
	if got := s.Apply(kvstore.Get("k").Encode()); !got.Equal(kvstore.ReplyNotFound) {
		t.Fatalf("aborted write leaked: %q", got)
	}
	if len(det.SortedKeys(s.locks)) != 0 {
		t.Fatal("locks leaked after abort")
	}
}

func TestStoreConflictingPrepareLatchesAbort(t *testing.T) {
	s := NewStore()
	s.Apply(Prepare(1, []kvstore.Command{put("k", "tx1")}).Encode())
	if got := s.Apply(Prepare(2, []kvstore.Command{put("k", "tx2")}).Encode()); !got.Equal(ReplyVoteAbort) {
		t.Fatalf("conflicting prepare vote = %q", got)
	}
	// The no-vote latched: even after tx1 releases the lock, tx2 cannot
	// be talked into a yes by a retried prepare.
	s.Apply(Commit(1).Encode())
	if got := s.Apply(Prepare(2, []kvstore.Command{put("k", "tx2")}).Encode()); !got.Equal(ReplyVoteAbort) {
		t.Fatalf("latched no-vote flipped: %q", got)
	}
	if s.outcomes[2] != commit.Aborted {
		t.Fatalf("tx2 outcome = %v", s.outcomes[2])
	}
}

func TestStoreDuplicatePrepareRereadsVote(t *testing.T) {
	s := NewStore()
	enc := Prepare(3, []kvstore.Command{put("k", "v")}).Encode()
	s.Apply(enc)
	if got := s.Apply(enc); !got.Equal(ReplyVoteCommit) {
		t.Fatalf("duplicate prepare = %q", got)
	}
	ev := s.TakeEvents()
	if len(ev) != 1 || ev[0].Kind != EvPrepared {
		t.Fatalf("duplicate prepare emitted extra events: %+v", ev)
	}
}

func TestStoreOutcomeIdempotentAndConflictLatched(t *testing.T) {
	s := NewStore()
	s.Apply(Prepare(4, []kvstore.Command{put("k", "v")}).Encode())
	s.Apply(Commit(4).Encode())
	if got := s.Apply(Commit(4).Encode()); !got.Equal(ReplyTxOK) {
		t.Fatalf("re-commit = %q, want idempotent TX_OK", got)
	}
	if got := s.Apply(Abort(4).Encode()); !got.Equal(ReplyConflict) {
		t.Fatalf("abort after commit = %q, want TX_CONFLICT", got)
	}
	// The conflicting abort must not have rolled anything back.
	if got := s.Apply(kvstore.Get("k").Encode()); !got.Equal(types.Value("v")) {
		t.Fatalf("conflicting abort corrupted state: %q", got)
	}
	if s.outcomes[4] != commit.Committed {
		t.Fatalf("outcome flipped to %v", s.outcomes[4])
	}
}

func TestStoreAbortOfUnknownTxnLatches(t *testing.T) {
	// A recovery coordinator may abort a transaction whose prepare never
	// reached this shard. The abort latches, so a late prepare must vote
	// no rather than resurrect the transaction.
	s := NewStore()
	if got := s.Apply(Abort(5).Encode()); !got.Equal(ReplyTxOK) {
		t.Fatalf("abort-of-unknown = %q", got)
	}
	if got := s.Apply(Prepare(5, []kvstore.Command{put("k", "v")}).Encode()); !got.Equal(ReplyVoteAbort) {
		t.Fatalf("late prepare after abort = %q", got)
	}
	if got := s.Apply(kvstore.Get("k").Encode()); !got.Equal(kvstore.ReplyNotFound) {
		t.Fatalf("late prepare staged state: %q", got)
	}
}

// A TxVoteAbort latches a no only where no vote is cast yet: after a
// yes it reads the yes back and leaves the staged writes and their
// locks alone, and a prepare after it votes no. Each shard's log is the
// consensus instance on its vote, so nothing may change a vote once cast.
func TestStoreVoteAbortLatchesOnlyAnUncastVote(t *testing.T) {
	s := NewStore()
	s.Apply(Prepare(6, []kvstore.Command{put("k", "v")}).Encode())
	if got := s.Apply(VoteAbort(6).Encode()); !got.Equal(ReplyVoteCommit) {
		t.Fatalf("vote-abort after a yes = %q, want the latched TX_VOTE_COMMIT", got)
	}
	if s.staged[6] == nil || s.locks["k"] != 6 || s.outcomes[6] != commit.Pending {
		t.Fatalf("vote-abort touched the staged yes: staged=%v locks=%v outcome=%v", s.staged[6], s.locks, s.outcomes[6])
	}
	if got := s.Apply(put("k", "x").Encode()); !got.Equal(ReplyLocked) {
		t.Fatalf("write to the yes's locked key = %q", got)
	}
	s.Apply(Commit(6).Encode())
	if got := s.Apply(kvstore.Get("k").Encode()); !got.Equal(types.Value("v")) {
		t.Fatalf("staged write lost: k = %q", got)
	}

	if got := s.Apply(VoteAbort(7).Encode()); !got.Equal(ReplyVoteAbort) {
		t.Fatalf("vote-abort of an unvoted txn = %q", got)
	}
	if got := s.Apply(Prepare(7, []kvstore.Command{put("j", "v")}).Encode()); !got.Equal(ReplyVoteAbort) {
		t.Fatalf("prepare after a vote-abort = %q, want TX_VOTE_ABORT", got)
	}
	if len(det.SortedKeys(s.locks)) != 0 || s.staged[7] != nil {
		t.Fatal("prepare after a vote-abort staged its writes")
	}
	ev := s.TakeEvents()
	if len(ev) != 3 || ev[0].Kind != EvPrepared || ev[1].Kind != EvCommitted || ev[2] != (Event{Tx: 7, Kind: EvVoteAbort}) {
		t.Fatalf("events = %+v, want prepared, committed, then tx 7's vote-abort", ev)
	}
}

func TestStorePlainWritesBounceOffLocks(t *testing.T) {
	s := NewStore()
	s.Apply(Prepare(7, []kvstore.Command{put("locked", "v")}).Encode())
	if got := s.Apply(put("locked", "x").Encode()); !got.Equal(ReplyLocked) {
		t.Fatalf("write to locked key = %q", got)
	}
	if got := s.Apply(kvstore.Delete("locked").Encode()); !got.Equal(ReplyLocked) {
		t.Fatalf("delete of locked key = %q", got)
	}
	// Reads pass through, and writes to other keys are unaffected.
	if got := s.Apply(kvstore.Get("locked").Encode()); !got.Equal(kvstore.ReplyNotFound) {
		t.Fatalf("read of locked key = %q", got)
	}
	if got := s.Apply(put("free", "y").Encode()); !got.Equal(kvstore.ReplyOK) {
		t.Fatalf("write to free key = %q", got)
	}
}

func TestStoreBatchRetryLatched(t *testing.T) {
	s := NewStore()
	batch := Apply(8, []kvstore.Command{kvstore.Incr("n", 1)}).Encode()
	if got := s.Apply(batch); !got.Equal(ReplyTxOK) {
		t.Fatalf("batch = %q", got)
	}
	// A duplicate log entry (coordinator fresh-seqno reissue) must not
	// re-execute the increment.
	if got := s.Apply(batch); !got.Equal(ReplyTxOK) {
		t.Fatalf("batch retry = %q", got)
	}
	if got := s.Apply(kvstore.Get("n").Encode()); !got.Equal(types.Value("1")) {
		t.Fatalf("batch re-executed: n = %q", got)
	}
}

func TestStoreBatchBouncesOffForeignLock(t *testing.T) {
	s := NewStore()
	s.Apply(Prepare(9, []kvstore.Command{put("k", "v")}).Encode())
	if got := s.Apply(Apply(10, []kvstore.Command{put("k", "x"), put("other", "y")}).Encode()); !got.Equal(ReplyLocked) {
		t.Fatalf("batch over locked key = %q", got)
	}
	// Nothing from the refused batch applied.
	if got := s.Apply(kvstore.Get("other").Encode()); !got.Equal(kvstore.ReplyNotFound) {
		t.Fatalf("refused batch partially applied: %q", got)
	}
}

func TestStoreMalformedInputRepliesNeverPanics(t *testing.T) {
	s := NewStore()
	inputs := []types.Value{
		{TxPrepare}, // truncated header
		{TxVoteAbort, 0, 0, 0, 0, 0, 0, 0, 0, 0x7F}, // trailing byte
		Prepare(1, []kvstore.Command{put("k", "v")}).Encode()[:12],
		{0xFF, 0xFF},
		nil,
	}
	for _, in := range inputs {
		if got := s.Apply(in); IsTxnCmd(in) && !got.Equal(kvstore.ReplyBadCmd) {
			t.Fatalf("malformed txn input %x replied %q, want BAD_COMMAND", in, got)
		}
	}
	if len(det.SortedKeys(s.locks)) != 0 || len(s.TakeEvents()) != 0 {
		t.Fatal("malformed input mutated the store")
	}
}
