package smr

import (
	"encoding/binary"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

func req(client types.ClientID, seq uint64, cmd kvstore.Command) types.Value {
	return EncodeRequest(types.Request{Client: client, SeqNo: seq, Op: cmd.Encode()})
}

// audited returns an executor over a fresh kvstore that keeps its apply
// history, as runner.SMRCluster's do.
func audited(node types.NodeID) *Executor {
	e := NewExecutor(node, kvstore.New())
	e.KeepHistory()
	return e
}

func TestRequestCodec(t *testing.T) {
	r := types.Request{Client: 7, SeqNo: 42, Op: types.Value("payload")}
	got, err := DecodeRequest(EncodeRequest(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Client != 7 || got.SeqNo != 42 || !got.Op.Equal(r.Op) {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := DecodeRequest(types.Value("short")); err == nil {
		t.Fatal("decoded short payload")
	}
	empty := types.Request{Client: 1, SeqNo: 1}
	got, err = DecodeRequest(EncodeRequest(empty))
	if err != nil || got.Op != nil {
		t.Fatalf("empty op round trip: %+v, %v", got, err)
	}
}

// TestDecodeRequestTable sweeps DecodeRequest over truncated,
// boundary-sized, and mutated encodings: anything under the 16-byte
// header is ErrDecode, exactly 16 bytes is a valid empty-op request,
// and no input may panic.
func TestDecodeRequestTable(t *testing.T) {
	full := EncodeRequest(types.Request{Client: 3, SeqNo: 99, Op: types.Value("op-bytes")})
	cases := []struct {
		name    string
		in      types.Value
		wantErr bool
		want    types.Request
	}{
		{name: "nil", in: nil, wantErr: true},
		{name: "empty", in: types.Value{}, wantErr: true},
		{name: "1-byte", in: full[:1], wantErr: true},
		{name: "half-header", in: full[:8], wantErr: true},
		{name: "header-minus-1", in: full[:15], wantErr: true},
		{name: "exact-header", in: full[:16],
			want: types.Request{Client: 3, SeqNo: 99}},
		{name: "full", in: full,
			want: types.Request{Client: 3, SeqNo: 99, Op: types.Value("op-bytes")}},
		{name: "trailing-grows-op", in: append(full.Clone(), 0xFF),
			want: types.Request{Client: 3, SeqNo: 99, Op: append(types.Value("op-bytes"), 0xFF)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeRequest(tc.in)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("decoded %d bytes without error: %+v", len(tc.in), got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Client != tc.want.Client || got.SeqNo != tc.want.SeqNo || !got.Op.Equal(tc.want.Op) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestDecodeRequestMutationsNeverPanic flips every byte of a valid
// encoding and truncates at every length: decode must return a value
// or ErrDecode, never panic.
func TestDecodeRequestMutationsNeverPanic(t *testing.T) {
	base := EncodeRequest(types.Request{Client: 1, SeqNo: 2, Op: types.Value("xyz")})
	for i := range base {
		mut := base.Clone()
		mut[i] ^= 0xA5
		DecodeRequest(mut)
		DecodeRequest(base[:i])
	}
}

// TestDedupRetriedSeqnoAfterLater: once a session's seqno has advanced,
// a late copy of an OLDER seqno neither re-executes nor is answered. The
// only reply cached is the latest one; handing it out under the old
// label (what this test used to pin as "the documented hazard") would
// tell whoever still listens for the old request another request's
// result.
func TestDedupRetriedSeqnoAfterLater(t *testing.T) {
	e := NewExecutor(0, kvstore.New())
	e.Commit(types.Decision{Slot: 1, Val: req(5, 1, kvstore.Incr("n", 1))})
	e.Commit(types.Decision{Slot: 2, Val: req(5, 2, kvstore.Incr("n", 10))})
	if r := e.Commit(types.Decision{Slot: 3, Val: req(5, 1, kvstore.Incr("n", 1))}); len(r) != 0 {
		t.Fatalf("stale seqno 1 answered after seqno 2 executed: %+v", r)
	}
	// The latest seqno is still answered from the cache, under its own label.
	r := e.Commit(types.Decision{Slot: 4, Val: req(5, 2, kvstore.Incr("n", 10))})
	if len(r) != 1 || r[0].SeqNo != 2 || !r[0].Result.Equal(types.Value("11")) {
		t.Fatalf("retry of the latest seqno: %+v, want the cached 11", r)
	}
	if r := e.Commit(types.Decision{Slot: 5, Val: req(6, 1, kvstore.Get("n"))}); !r[0].Result.Equal(types.Value("11")) {
		t.Fatalf("n = %q after a stale copy and a retry, want 11 (neither may re-execute)", r[0].Result)
	}
}

func TestExecutorInOrderApply(t *testing.T) {
	e := NewExecutor(0, kvstore.New())
	r1 := e.Commit(types.Decision{Slot: 1, Val: req(1, 1, kvstore.Put("a", []byte("1")))})
	if len(r1) != 1 || !r1[0].Result.Equal(kvstore.ReplyOK) {
		t.Fatalf("slot 1 replies = %+v", r1)
	}
	r2 := e.Commit(types.Decision{Slot: 2, Val: req(1, 2, kvstore.Get("a"))})
	if len(r2) != 1 || !r2[0].Result.Equal(types.Value("1")) {
		t.Fatalf("slot 2 replies = %+v", r2)
	}
	if e.NextSlot() != 3 {
		t.Fatalf("next slot = %d", e.NextSlot())
	}
}

// The in-order stream takes Commit's direct path; a gap parks slots and
// takes the map path until it is filled, after which the stream is
// direct again. Either way every slot applies once, in order.
func TestExecutorInOrderStreamAroundAGap(t *testing.T) {
	e := audited(0)
	commit := func(slot types.Seq) int {
		return len(e.Commit(types.Decision{Slot: slot, Val: req(1, uint64(slot), kvstore.Incr("n", 1))}))
	}
	for _, step := range []struct {
		slot    types.Seq
		replies int
	}{
		{1, 1}, {2, 1}, // direct
		{4, 0}, {5, 0}, // parked
		{3, 3},         // fills the gap
		{6, 1}, {7, 1}, // direct again
		{7, 0}, {2, 0}, // duplicates of applied slots
	} {
		if got := commit(step.slot); got != step.replies {
			t.Fatalf("slot %d produced %d replies, want %d", step.slot, got, step.replies)
		}
	}
	if e.NextSlot() != 8 || len(e.pending) != 0 {
		t.Fatalf("next slot %d with %d parked, want 8 and 0", e.NextSlot(), len(e.pending))
	}
	if len(e.Applied()) != 7 {
		t.Fatalf("apply history holds %d slots, want 7", len(e.Applied()))
	}
	for i, d := range e.Applied() {
		if d.Slot != types.Seq(i+1) {
			t.Fatalf("apply history position %d holds slot %d", i, d.Slot)
		}
	}
	if r := e.Commit(types.Decision{Slot: 8, Val: req(2, 1, kvstore.Get("n"))}); len(r) != 1 || !r[0].Result.Equal(types.Value("7")) {
		t.Fatalf("counter after 7 increments: %+v", r)
	}
}

// nopSM applies nothing, so what is left is the executor's own cost.
type nopSM struct{}

func (nopSM) Apply(types.Value) types.Value { return nil }
func (nopSM) Query(types.Value) types.Value { return nil }
func (nopSM) Snapshot() []byte              { return nil }
func (nopSM) Restore([]byte) error          { return nil }

// inOrder returns a function committing the next slot of one session's
// stream each time it is called.
func inOrder(e *Executor) func() {
	slot := types.Seq(0)
	val := EncodeRequest(types.Request{Client: 1}) // SeqNo patched per slot
	return func() {
		slot++
		v := append(types.Value(nil), val...)
		binary.BigEndian.PutUint64(v[8:], uint64(slot))
		e.Commit(types.Decision{Slot: slot, Val: v})
	}
}

// An in-order decision costs the executor one allocation, the reply
// slice (the other is this test's own value).
func TestCommitInOrderAllocs(t *testing.T) {
	e := NewExecutor(0, nopSM{})
	if allocs := testing.AllocsPerRun(2000, inOrder(e)); allocs != 2 {
		t.Fatalf("in-order Commit: %v allocs per decision, want 2", allocs)
	}
	if e.NextSlot() != 2002 {
		t.Fatalf("next slot %d after 2001 in-order commits", e.NextSlot())
	}
}

func BenchmarkCommitInOrder(b *testing.B) {
	commit := inOrder(NewExecutor(0, nopSM{}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit()
	}
}

func TestExecutorHoldsGaps(t *testing.T) {
	e := NewExecutor(0, kvstore.New())
	if got := e.Commit(types.Decision{Slot: 3, Val: req(1, 3, kvstore.Get("x"))}); got != nil {
		t.Fatalf("applied slot 3 before 1-2: %+v", got)
	}
	if got := e.Commit(types.Decision{Slot: 2, Val: req(1, 2, kvstore.Put("x", []byte("v")))}); got != nil {
		t.Fatalf("applied slot 2 before 1: %+v", got)
	}
	got := e.Commit(types.Decision{Slot: 1, Val: req(1, 1, kvstore.Noop())})
	if len(got) != 3 {
		t.Fatalf("gap fill applied %d slots, want 3", len(got))
	}
	// Slot 3's GET must observe slot 2's PUT.
	if !got[2].Result.Equal(types.Value("v")) {
		t.Fatalf("slot 3 result = %q", got[2].Result)
	}
}

func TestExecutorDuplicateDecisionIgnored(t *testing.T) {
	e := audited(0)
	d := types.Decision{Slot: 1, Val: req(1, 1, kvstore.Incr("n", 1))}
	e.Commit(d)
	if got := e.Commit(d); got != nil {
		t.Fatalf("duplicate decision re-applied: %+v", got)
	}
	if len(e.Applied()) != 1 {
		t.Fatalf("applied %d times", len(e.Applied()))
	}
}

func TestExecutorPanicsOnConflictingDecision(t *testing.T) {
	e := NewExecutor(0, kvstore.New())
	e.Commit(types.Decision{Slot: 5, Val: types.Value("aaaaaaaaaaaaaaaaaa")})
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting pending decision did not panic")
		}
	}()
	e.Commit(types.Decision{Slot: 5, Val: types.Value("bbbbbbbbbbbbbbbbbb")})
}

func TestClientDedup(t *testing.T) {
	// A retried client request (same seqno) must not re-execute; the
	// cached reply returns instead. Incr makes re-execution visible.
	e := NewExecutor(0, kvstore.New())
	r1 := e.Commit(types.Decision{Slot: 1, Val: req(9, 1, kvstore.Incr("n", 1))})
	if !r1[0].Result.Equal(types.Value("1")) {
		t.Fatalf("first incr = %q", r1[0].Result)
	}
	r2 := e.Commit(types.Decision{Slot: 2, Val: req(9, 1, kvstore.Incr("n", 1))})
	if len(r2) != 1 || !r2[0].Result.Equal(types.Value("1")) {
		t.Fatalf("retried incr = %+v (re-executed!)", r2)
	}
	r3 := e.Commit(types.Decision{Slot: 3, Val: req(9, 2, kvstore.Incr("n", 1))})
	if !r3[0].Result.Equal(types.Value("2")) {
		t.Fatalf("next incr = %q", r3[0].Result)
	}
}

func TestNonRequestValuesApplyWithoutReply(t *testing.T) {
	e := NewExecutor(0, kvstore.New())
	replies := e.Commit(types.Decision{Slot: 1, Val: types.Value("raw")})
	if len(replies) != 0 {
		t.Fatalf("raw value produced replies: %+v", replies)
	}
	if e.NextSlot() != 2 {
		t.Fatal("raw value did not advance the frontier")
	}
}

func TestPrefixConsistencyDetectsDivergence(t *testing.T) {
	a, b := audited(0), audited(1)
	a.Commit(types.Decision{Slot: 1, Val: req(1, 1, kvstore.Put("k", []byte("same")))})
	b.Commit(types.Decision{Slot: 1, Val: req(1, 1, kvstore.Put("k", []byte("same")))})
	if err := CheckPrefixConsistency(a, b); err != nil {
		t.Fatalf("consistent prefixes flagged: %v", err)
	}
	// b applies one more slot than a — still consistent (prefix rule).
	b.Commit(types.Decision{Slot: 2, Val: req(1, 2, kvstore.Get("k"))})
	if err := CheckPrefixConsistency(a, b); err != nil {
		t.Fatalf("longer prefix flagged: %v", err)
	}
	// Divergence is flagged.
	c := audited(2)
	c.Commit(types.Decision{Slot: 1, Val: req(1, 1, kvstore.Put("k", []byte("DIFFERENT")))})
	if err := CheckPrefixConsistency(a, c); err == nil {
		t.Fatal("divergence not detected")
	}
}

// The apply history is the auditor's, not every executor's: one that was
// not asked keeps none however much it commits, and checking it is an
// error — two empty histories used to compare as agreement.
func TestHistoryIsOptIn(t *testing.T) {
	e := NewExecutor(0, nopSM{})
	commit := inOrder(e)
	for i := 0; i < 100_000; i++ {
		commit()
	}
	if e.NextSlot() != 100_001 || e.Applied() != nil {
		t.Fatalf("next slot %d with %d slots of history, want 100001 and none", e.NextSlot(), len(e.Applied()))
	}
	if e.Sessions() != 1 {
		t.Fatalf("%d sessions after one session's stream, want 1", e.Sessions())
	}
	if err := CheckPrefixConsistency(e, e); err == nil {
		t.Fatal("an executor with no history passed the prefix check")
	}
	if err := CheckPrefixConsistency(audited(1), e); err == nil {
		t.Fatal("an audited executor checked against one with no history passed")
	}
	// Asked but idle is not the same thing: nothing applied, nothing to differ on.
	if err := CheckPrefixConsistency(audited(1), audited(2)); err != nil {
		t.Fatalf("two audited executors that applied nothing: %v", err)
	}
}
