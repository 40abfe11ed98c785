package smr

import (
	"errors"
	"slices"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// fakeLeader is a fakeReader that can claim to lead and logs what it is
// submitted, for commit to decide.
type fakeLeader struct {
	fakeReader
	leads     bool
	submitted []types.Value
	slot      types.Seq
}

func (m *fakeLeader) IsLeader() bool       { return m.leads }
func (m *fakeLeader) Submit(v types.Value) { m.submitted = append(m.submitted, v) }

// commit decides the i-th submitted value in the next slot.
func (m *fakeLeader) commit(i int) {
	m.slot++
	m.decided = append(m.decided, types.Decision{Slot: m.slot, Val: m.submitted[i]})
}

func newSessions() (*Sessions[string], *fakeLeader) {
	mod := &fakeLeader{leads: true}
	return NewSessions[string](NewReplica(0, mod, kvstore.New()), mod), mod
}

func incrReq(client types.ClientID, seqno uint64) types.Request {
	return types.Request{Client: client, SeqNo: seqno, Op: kvstore.Incr("n", 1).Encode()}
}

// write enters one write under w and proposes it.
func write(t *testing.T, s *Sessions[string], req types.Request, w string) {
	t.Helper()
	if got := s.Enter(req, false, false, w); got != Taken {
		t.Fatalf("Enter(%+v) refused: %d", req, got)
	}
	if !s.Propose() {
		t.Fatal("Propose found no write")
	}
}

// pump pumps s and returns the waiters answered, each with its result,
// and those handed back.
func pump(t *testing.T, s *Sessions[string]) (answered, orphans []string) {
	t.Helper()
	_, as, orphans, err := s.Pump()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		answered = append(answered, a.Waiter+"="+string(a.Result))
	}
	return answered, orphans
}

// A session's newer seqno replaces its unanswered entry: the table
// holds one entry per session, waiting for the newest seqno.
func TestSessionsNewerSeqnoReplacesEntry(t *testing.T) {
	s, _ := newSessions()
	write(t, s, incrReq(7, 1), "first")
	write(t, s, incrReq(7, 2), "second")
	write(t, s, incrReq(8, 1), "other")
	if e := s.waiting[7]; s.Len() != 2 || e.seqno != 2 || e.w != "second" {
		t.Fatalf("%d entries, session 7's is %+v; want 2, and seqno 2's", s.Len(), e)
	}
}

// A reply to the replaced seqno answers nobody: not the entry that
// replaced it, which its own reply answers later.
func TestSessionsReplyToReplacedSeqnoAnswersNobody(t *testing.T) {
	s, mod := newSessions()
	write(t, s, incrReq(7, 1), "first")
	write(t, s, incrReq(7, 2), "second")
	mod.commit(0)
	if answered, _ := pump(t, s); len(answered) != 0 || s.Len() != 1 {
		t.Fatalf("seqno 1's reply answered %q, %d entries left; want none, 1", answered, s.Len())
	}
	mod.commit(1)
	if answered, _ := pump(t, s); !slices.Equal(answered, []string{"second=2"}) || s.Len() != 0 {
		t.Fatalf("seqno 2's reply answered %q, %d entries left; want [second=2], 0", answered, s.Len())
	}
}

// A reply answers its entry once: a second copy of the request in the
// log, which the executor answers from its dedup cache, finds nothing
// waiting.
func TestSessionsReplyAnswersItsEntryOnce(t *testing.T) {
	s, mod := newSessions()
	write(t, s, incrReq(7, 1), "w")
	mod.commit(0)
	mod.commit(0)
	if answered, _ := pump(t, s); !slices.Equal(answered, []string{"w=1"}) {
		t.Fatalf("two copies of one write answered %q, want [w=1]", answered)
	}
	mod.commit(0)
	if answered, _ := pump(t, s); len(answered) != 0 {
		t.Fatalf("a third copy answered %q", answered)
	}
}

// A read the module confirms is answered; one it drops is handed back
// to the host, and its entry is gone.
func TestSessionsDroppedReadIsHandedBack(t *testing.T) {
	s, mod := newSessions()
	get := kvstore.Get("n").Encode()
	for c, w := range []string{"kept", "lost"} {
		if got := s.Enter(types.Request{Client: types.ClientID(c + 1), SeqNo: 1, Op: get}, true, false, w); got != Taken {
			t.Fatalf("read %s refused: %d", w, got)
		}
	}
	if s.Propose() || len(mod.submitted) != 0 || len(mod.asked) != 2 {
		t.Fatalf("two reads submitted %d values and asked %v", len(mod.submitted), mod.asked)
	}
	mod.states = []types.ReadState{{ID: mod.asked[0]}, {ID: mod.asked[1], Dropped: true}}
	answered, orphans := pump(t, s)
	if !slices.Equal(answered, []string{"kept=NOT_FOUND"}) || !slices.Equal(orphans, []string{"lost"}) || s.Len() != 0 {
		t.Fatalf("answered %q, handed back %q, %d entries left", answered, orphans, s.Len())
	}
}

// A refused request leaves no entry and reaches no module: not on a
// module that does not lead, not on a dead replica. The Pump that finds
// the replica dead hands back every entry still waiting.
func TestSessionsRefusedOpCreatesNoEntry(t *testing.T) {
	s, mod := newSessions()
	mod.leads = false
	if got := s.Enter(incrReq(7, 1), false, false, "w"); got != NotLeader {
		t.Fatalf("Enter on a follower: %d, want NotLeader", got)
	}
	if got := s.Enter(types.Request{Client: 8, SeqNo: 1, Op: kvstore.Get("n").Encode()}, true, false, "r"); got != NotLeader {
		t.Fatalf("a read on a follower: %d, want NotLeader", got)
	}
	if s.Len() != 0 || s.Propose() || len(mod.asked) != 0 {
		t.Fatalf("refused requests left %d entries, asked %v", s.Len(), mod.asked)
	}

	mod.leads = true
	write(t, s, incrReq(9, 1), "b")
	write(t, s, incrReq(3, 1), "a")
	snap := snapshotAt(10)
	snap.State = snap.State[:len(snap.State)-3] // cut short in transit
	mod.installed = snap
	_, answered, orphans, err := s.Pump()
	if !errors.Is(err, ErrDecode) || len(answered) != 0 || !slices.Equal(orphans, []string{"a", "b"}) {
		t.Fatalf("the failed install: answered %d, handed back %q, err %v; want [a b], ErrDecode", len(answered), orphans, err)
	}
	if got := s.Enter(incrReq(7, 2), false, false, "w"); got != Dead || s.Len() != 0 {
		t.Fatalf("Enter on a dead replica: %d with %d entries, want Dead and none", got, s.Len())
	}
}
