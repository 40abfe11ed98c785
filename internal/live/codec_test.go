package live

import (
	"reflect"
	"strings"
	"testing"

	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/types"
)

func raftMessages() []raft.Message {
	return []raft.Message{
		{Kind: raft.MsgRequestVote, From: 1, To: 2, Term: 7, LastLogIndex: 42, LastLogTerm: 6},
		{Kind: raft.MsgVote, From: 2, To: 1, Term: 7, Granted: true},
		{
			Kind: raft.MsgAppend, From: 0, To: 4, Term: 9,
			PrevIndex: 10, PrevTerm: 8, LeaderCommit: 9,
			Entries: []raft.LogEntry{
				{Term: 9, Val: types.Value("set x=1")},
				{Term: 9, Val: nil}, // leader no-op: nil value survives
				{Term: 9, Val: types.Value{}},
			},
		},
		{Kind: raft.MsgAppendResp, From: 4, To: 0, Term: 9, Success: true, MatchIndex: 13},
		{
			Kind: raft.MsgSnap, From: 0, To: 4, Term: 9,
			PrevIndex: 20, PrevTerm: 8, LeaderCommit: 25,
			Val: types.Value("snapshot chunk bytes"), Offset: 4096, Done: true,
		},
		{Kind: raft.MsgSnapResp, From: 4, To: 0, Term: 9, Success: true, Offset: 8192},
		{Kind: raft.MsgSnapResp, From: 4, To: 0, Term: 9, Success: true, Done: true, MatchIndex: 20},
		{Kind: raft.MsgRead, From: 0, To: 2, Term: 9, Read: 1 << 40},
		{Kind: raft.MsgReadResp, From: 2, To: 0, Term: 10, Read: 17},
	}
}

func paxosMessages() []multipaxos.Message {
	b3, t2 := types.Ballot{Num: 3, Owner: 1}, uint64(2<<16)
	return []multipaxos.Message{
		{Kind: multipaxos.MsgPrepare, From: 1, To: 2, Ballot: b3, Slot: 4},
		{
			Kind: multipaxos.MsgAck, From: 2, To: 1, Ballot: b3, Slot: 4, Commit: 5,
			Entries: []multipaxos.Entry{
				{Term: t2, Val: types.Value("old")},
				{Term: 1<<16 | 2, Val: nil}, // a no-op: nil value survives
			},
		},
		{Kind: multipaxos.MsgNack, From: 2, To: 1, Ballot: types.Ballot{Num: 4, Owner: 0}},
		{
			Kind: multipaxos.MsgAccept, From: 1, To: 0, Ballot: b3, Slot: 6, Prev: t2, Commit: 5, Read: 9,
			Entries: []multipaxos.Entry{{Term: 3<<16 | 1, Val: types.Value("v")}, {Term: 3<<16 | 1, Val: types.Value{}}},
		},
		{Kind: multipaxos.MsgAccepted, From: 0, To: 1, Ballot: b3, OK: true, Match: 8, Read: 9},
		{Kind: multipaxos.MsgAccepted, From: 0, To: 1, Ballot: b3, Slot: 6, Match: 4},
		{Kind: multipaxos.MsgState, From: 1, To: 0, Ballot: b3, Slot: 30, Val: types.Value("snapshot chunk bytes"), Offset: 8192, Done: true, Commit: 40},
		{Kind: multipaxos.MsgStateResp, From: 0, To: 1, Ballot: b3, Slot: 30, OK: true, Offset: 12288},
		{Kind: multipaxos.MsgRead, From: 1, To: 2, Ballot: b3, Read: 1 << 40},
		{Kind: multipaxos.MsgReadResp, From: 2, To: 1, Ballot: b3, Read: 17},
	}
}

// normRaft canonicalizes a message for comparison: nil and empty
// values are interchangeable (length 0 encodes identically).
func normRaft(m raft.Message) raft.Message {
	if len(m.Val) == 0 {
		m.Val = nil
	}
	for i := range m.Entries {
		if len(m.Entries[i].Val) == 0 {
			m.Entries[i].Val = nil
		}
	}
	if len(m.Entries) == 0 {
		m.Entries = nil
	}
	return m
}

func normPaxos(m multipaxos.Message) multipaxos.Message {
	if len(m.Val) == 0 {
		m.Val = nil
	}
	for i := range m.Entries {
		if len(m.Entries[i].Val) == 0 {
			m.Entries[i].Val = nil
		}
	}
	if len(m.Entries) == 0 {
		m.Entries = nil
	}
	return m
}

func TestRaftCodecRoundTrip(t *testing.T) {
	c := RaftCodec{}
	for i, m := range raftMessages() {
		b := c.Append(nil, m)
		got, err := c.Decode(b)
		if err != nil {
			t.Fatalf("message %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(normRaft(got), normRaft(m)) {
			t.Fatalf("message %d: round trip mismatch:\n got %+v\nwant %+v", i, got, m)
		}
	}
}

func TestMultiPaxosCodecRoundTrip(t *testing.T) {
	c := MultiPaxosCodec{}
	for i, m := range paxosMessages() {
		b := c.Append(nil, m)
		got, err := c.Decode(b)
		if err != nil {
			t.Fatalf("message %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(normPaxos(got), normPaxos(m)) {
			t.Fatalf("message %d: round trip mismatch:\n got %+v\nwant %+v", i, got, m)
		}
	}
}

// Every truncation of a valid encoding must decode to an error — never
// a panic, never a silently wrong message.
func TestRaftCodecTruncation(t *testing.T) {
	c := RaftCodec{}
	for _, m := range raftMessages() {
		b := c.Append(nil, m)
		for cut := 0; cut < len(b); cut++ {
			if _, err := c.Decode(b[:cut]); err == nil {
				t.Fatalf("truncation at %d/%d decoded without error", cut, len(b))
			}
		}
		// Trailing garbage must be rejected too.
		if _, err := c.Decode(append(append([]byte{}, b...), 0xff)); err == nil {
			t.Fatal("trailing garbage decoded without error")
		}
	}
}

// What an acceptor answers a Prepare with is a frame, and a frame has a
// limit: the Ack names the slots past the candidate's commit frontier,
// and an acceptor refuses a candidate so far behind its own that they
// would not fit, so its size does not follow the log's. With every
// accepted slot in it, this one was 300,000 entries and 18,900,057 bytes.
func TestLongLogAckFitsAFrame(t *testing.T) {
	const slots = 300_000
	lead := types.Ballot{Num: 1, Owner: 0}
	tag := uint64(1 << 16)
	acc := multipaxos.New(1, multipaxos.Config{Peers: []types.NodeID{0, 1, 2}})
	val := types.Value(strings.Repeat("v", 23))
	for s := types.Seq(1); s <= slots; s++ {
		prev := tag
		if s == 1 {
			prev = 0
		}
		acc.Step(multipaxos.Message{Kind: multipaxos.MsgAccept, From: 0, To: 1, Ballot: lead, Slot: s - 1, Prev: prev,
			Entries: []multipaxos.Entry{{Term: tag, Val: val}}, Commit: s - 1})
		acc.Drain()
	}
	if acc.CommitFrontier() != slots-1 {
		t.Fatalf("acceptor learned %d of %d slots from the frontiers its accepts carried", acc.CommitFrontier(), slots-1)
	}
	// A Prepare reaches an acceptor only once its leader has been quiet
	// for an election timeout: until then it ignores another candidate.
	// By then its own timer may have fired; what it sent is not the test.
	for range 30 { // multipaxos' default ElectionTimeoutTicks
		acc.Tick()
	}
	acc.Drain()
	acc.Step(multipaxos.Message{Kind: multipaxos.MsgPrepare, From: 2, To: 1, Ballot: types.Ballot{Num: 2, Owner: 2}, Slot: slots - 1})
	out := acc.Drain()
	if len(out) != 1 || out[0].Kind != multipaxos.MsgAck || out[0].Commit != slots-1 {
		t.Fatalf("answer to the prepare: %+v", out)
	}
	if es := out[0].Entries; len(es) != 1 || out[0].Slot != slots-1 || es[0].Term != tag {
		t.Fatalf("ack carries %d entries, want the one undecided slot", len(es))
	}
	if n := len(MultiPaxosCodec{}.Append(nil, out[0])); n >= 1<<10 {
		t.Fatalf("ack encodes to %d bytes (DefaultMaxFrame %d)", n, DefaultMaxFrame)
	}
	acc.Step(multipaxos.Message{Kind: multipaxos.MsgPrepare, From: 2, To: 1, Ballot: types.Ballot{Num: 3, Owner: 2}})
	if out := acc.Drain(); len(out) != 1 || out[0].Kind != multipaxos.MsgNack {
		t.Fatalf("answer to a prepare %d slots behind: %+v, want a refusal", slots-1, out)
	}
}

func TestMultiPaxosCodecTruncation(t *testing.T) {
	c := MultiPaxosCodec{}
	for _, m := range paxosMessages() {
		b := c.Append(nil, m)
		for cut := 0; cut < len(b); cut++ {
			if _, err := c.Decode(b[:cut]); err == nil {
				t.Fatalf("truncation at %d/%d decoded without error", cut, len(b))
			}
		}
		if _, err := c.Decode(append(append([]byte{}, b...), 0xff)); err == nil {
			t.Fatal("trailing garbage decoded without error")
		}
	}
}

func TestCodecRejectsBadKind(t *testing.T) {
	rc := RaftCodec{}
	b := rc.Append(nil, raft.Message{Kind: raft.MsgRequestVote})
	b[0] = 0xee
	if _, err := rc.Decode(b); err == nil {
		t.Fatal("raft: out-of-range kind decoded without error")
	}
	pc := MultiPaxosCodec{}
	b = pc.Append(nil, multipaxos.Message{Kind: multipaxos.MsgPrepare})
	b[0] = 0
	if _, err := pc.Decode(b); err == nil {
		t.Fatal("multipaxos: out-of-range kind decoded without error")
	}
}

// A corrupt entry count must not drive a huge allocation: the count
// guard rejects counts that cannot fit the remaining bytes.
func TestCodecCorruptCountRejected(t *testing.T) {
	c := RaftCodec{}
	m := raft.Message{Kind: raft.MsgAppend, Entries: []raft.LogEntry{{Term: 1, Val: types.Value("x")}}}
	b := c.Append(nil, m)
	// The count is the u32 that ends the fixed fields, wherever they end:
	// the same message with no entries encodes to exactly those fields.
	m.Entries = nil
	countOff := len(c.Append(nil, m)) - 4
	if b[countOff+3] != 1 {
		t.Fatalf("byte %d is not the low byte of an entry count of 1: %x", countOff+3, b)
	}
	b[countOff], b[countOff+1], b[countOff+2], b[countOff+3] = 0xff, 0xff, 0xff, 0xff
	if _, err := c.Decode(b); err == nil {
		t.Fatal("corrupt count decoded without error")
	}
}

// An outbound frame is one allocation — the exact-size copy the
// transport queues — however many appends the codec needs to build it,
// and it decodes to what was sent behind the group index.
func TestFrameIsOneAllocation(t *testing.T) {
	val := types.Value("a 48-byte client request, as servebench sends them..")
	rg := &smrGroup[raft.Message]{idx: 3, codec: RaftCodec{}}
	app := raft.Message{
		Kind: raft.MsgAppend, From: 0, To: 1, Term: 2, PrevIndex: 9, PrevTerm: 2, LeaderCommit: 8,
		Entries: []raft.LogEntry{{Term: 2, Val: val}},
	}
	pg := &smrGroup[multipaxos.Message]{idx: 3, codec: MultiPaxosCodec{}}
	acc := multipaxos.Message{
		Kind: multipaxos.MsgAccept, From: 0, To: 1, Ballot: types.Ballot{Num: 2}, Slot: 10, Val: val, Commit: 8,
	}
	if n := testing.AllocsPerRun(100, func() { rg.frame(app) }); n != 1 {
		t.Errorf("raft one-entry append: %v allocations per frame, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { pg.frame(acc) }); n != 1 {
		t.Errorf("multipaxos one-value accept: %v allocations per frame, want 1", n)
	}

	f := rg.frame(app)
	if len(f) != cap(f) {
		t.Errorf("frame of %d bytes in a buffer of %d", len(f), cap(f))
	}
	if got, err := (RaftCodec{}).Decode(f[4:]); err != nil || !reflect.DeepEqual(got, app) || f[3] != 3 {
		t.Errorf("append frame decodes to %+v (%v) for group %d", got, err, f[3])
	}
	// The scratch is reused, so an earlier frame must not change under a
	// later one — the transport still holds it.
	held := append([]byte(nil), f...)
	rg.frame(raft.Message{Kind: raft.MsgAppendResp, From: 1, To: 0, Term: 2, Success: true, MatchIndex: 10})
	if !reflect.DeepEqual(f, held) {
		t.Error("a later frame rewrote an earlier one")
	}
	if got, err := (MultiPaxosCodec{}).Decode(pg.frame(acc)[4:]); err != nil || !reflect.DeepEqual(got, acc) {
		t.Errorf("accept frame decodes to %+v (%v)", got, err)
	}

	// A frame past maxFrameScratch is built and the buffer let go.
	big := raft.Message{Kind: raft.MsgSnap, Val: make(types.Value, maxFrameScratch)}
	if f := rg.frame(big); len(f) <= maxFrameScratch || rg.enc != nil {
		t.Errorf("%d-byte frame left a %d-byte scratch behind", len(f), cap(rg.enc))
	}
}
