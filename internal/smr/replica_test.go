package smr

import (
	"encoding/binary"
	"errors"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// fakeModule is a consensus module reduced to what a Replica sees: a
// decision queue, an installed-snapshot slot, and a Compact that can be
// told to refuse.
type fakeModule struct {
	decided   []types.Decision
	installed *snapshot.Snapshot
	refuse    bool
	compacted []types.Seq // upTo of every accepted Compact
	offered   int         // Compact calls, accepted or not
}

func (m *fakeModule) TakeDecisions() []types.Decision {
	ds := m.decided
	m.decided = nil
	return ds
}

func (m *fakeModule) TakeInstalledSnapshot() *snapshot.Snapshot {
	s := m.installed
	m.installed = nil
	return s
}

func (m *fakeModule) CompactHeld() bool { return false }

func (m *fakeModule) Compact(upTo types.Seq, state []byte) bool {
	m.offered++
	if m.refuse {
		return false
	}
	m.compacted = append(m.compacted, upTo)
	return true
}

func (m *fakeModule) SnapshotIndex() types.Seq {
	if len(m.compacted) == 0 {
		return 0
	}
	return m.compacted[len(m.compacted)-1]
}

// Replica finds the compaction surface by type assertion, so a fake
// that falls short of it would silently never compact.
var _ Compactor = (*fakeModule)(nil)

func incr(slot types.Seq, seq uint64) types.Decision {
	return types.Decision{Slot: slot, Val: EncodeRequest(types.Request{
		Client: 7, SeqNo: seq, Op: kvstore.Incr("n", 1).Encode(),
	})}
}

// snapshotAt builds the snapshot a peer that applied incr 1..upTo would
// ship.
func snapshotAt(upTo types.Seq) *snapshot.Snapshot {
	src := NewExecutor(9, kvstore.New())
	for s := types.Seq(1); s <= upTo; s++ {
		src.Commit(incr(s, uint64(s)))
	}
	return &snapshot.Snapshot{LastIndex: upTo, State: src.SnapshotState()}
}

func mustPump(t *testing.T, r *Replica) []types.Reply {
	t.Helper()
	_, replies, _, err := r.Pump()
	if err != nil {
		t.Fatal(err)
	}
	return replies
}

func TestReplicaRestoresBeforePostSnapshotDecisions(t *testing.T) {
	mod := &fakeModule{}
	r := NewReplica(0, mod, kvstore.New())
	mod.decided = []types.Decision{incr(1, 1), incr(2, 2)}
	if got := mustPump(t, r); len(got) != 2 {
		t.Fatalf("replies before install: %+v", got)
	}
	// The module installed a snapshot through slot 10 and, in the same
	// step, committed slot 11: the one Pump must restore first, or slot
	// 11 would park behind the gap 3..10 forever.
	mod.installed = snapshotAt(10)
	mod.decided = []types.Decision{incr(11, 11)}
	replies := mustPump(t, r)
	if len(replies) != 1 || string(replies[0].Result) != "11" {
		t.Fatalf("slot 11 applied to the wrong state: %+v", replies)
	}
	if r.Exec().NextSlot() != 12 || r.Installs() != 1 {
		t.Fatalf("next slot %d, installs %d", r.Exec().NextSlot(), r.Installs())
	}
}

func TestReplicaTruncatedSnapshotSurfacesAndStopsApplying(t *testing.T) {
	mod := &fakeModule{}
	store := kvstore.New()
	r := NewReplica(0, mod, store)
	mod.decided = []types.Decision{incr(1, 1)}
	mustPump(t, r)
	before := string(store.Snapshot())

	snap := snapshotAt(10)
	snap.State = snap.State[:len(snap.State)-3]
	mod.installed = snap
	mod.decided = []types.Decision{incr(11, 11)}
	ds, replies, _, err := r.Pump()
	if !errors.Is(err, ErrDecode) {
		t.Fatalf("truncated snapshot state: err = %v, want ErrDecode", err)
	}
	if len(ds) != 1 || len(replies) != 0 {
		t.Fatalf("failed pump returned %d decisions, %d replies", len(ds), len(replies))
	}
	// The failure is permanent: the module's log starts past the
	// snapshot, so nothing can fill the gap. Later decisions — even the
	// contiguous slot 2 — are not applied, the error keeps coming, and
	// the replica neither installs nor compacts.
	mod.decided = []types.Decision{incr(2, 2), incr(12, 12)}
	if _, replies, _, err := r.Pump(); err == nil || len(replies) != 0 {
		t.Fatalf("pump after failed restore: replies %+v, err %v", replies, err)
	}
	if got := string(store.Snapshot()); got != before {
		t.Fatal("state machine changed after the failed restore")
	}
	if r.Exec().NextSlot() != 2 || r.Installs() != 0 {
		t.Fatalf("next slot %d, installs %d", r.Exec().NextSlot(), r.Installs())
	}
	if r.Compact() || mod.offered != 0 {
		t.Fatal("a dead replica offered the module a snapshot")
	}
}

func TestReplicaCompactCadence(t *testing.T) {
	mod := &fakeModule{refuse: true}
	r := NewReplica(0, mod, kvstore.New())
	for s := types.Seq(1); s <= 5; s++ {
		mod.decided = append(mod.decided, incr(s, uint64(s)))
	}
	mustPump(t, r)
	r.CompactEvery(8)
	if mod.offered != 0 {
		t.Fatal("compacted 5 slots in, cadence 8")
	}
	r.CompactEvery(0)
	if mod.offered != 0 {
		t.Fatal("cadence 0 compacted")
	}
	// Due at 5 but refused: every later call offers again, at the
	// frontier of the moment.
	r.CompactEvery(5)
	r.CompactEvery(5)
	if mod.offered != 2 || len(mod.compacted) != 0 || r.SnapshotBytes() != 0 {
		t.Fatalf("offered %d, accepted %v, snapshot of %d bytes", mod.offered, mod.compacted, r.SnapshotBytes())
	}
	mod.refuse = false
	mod.decided = []types.Decision{incr(6, 6)}
	mustPump(t, r)
	r.CompactEvery(5)
	if len(mod.compacted) != 1 || mod.compacted[0] != 6 || r.SnapshotIndex() != 6 {
		t.Fatalf("accepted %v, snapshot index %d, want [6] and 6", mod.compacted, r.SnapshotIndex())
	}
	if want := len(r.Exec().SnapshotState()); r.SnapshotBytes() != want {
		t.Fatalf("snapshot of %d bytes reported, the one taken has %d", r.SnapshotBytes(), want)
	}
	r.CompactEvery(5)
	if mod.offered != 3 {
		t.Fatal("compacted again with nothing new applied")
	}
	// An installed snapshot moves the cadence's base to its index: the
	// next compaction is due 5 slots past 20, not past 6.
	mod.installed = snapshotAt(20)
	installed := len(mod.installed.State)
	for s := types.Seq(21); s <= 24; s++ {
		mod.decided = append(mod.decided, incr(s, uint64(s)))
	}
	mustPump(t, r)
	if r.SnapshotBytes() != installed {
		t.Fatalf("snapshot of %d bytes reported, the one installed has %d", r.SnapshotBytes(), installed)
	}
	r.CompactEvery(5)
	if mod.offered != 3 {
		t.Fatal("compacted 4 slots past an installed snapshot, cadence 5")
	}
	mod.decided = []types.Decision{incr(25, 25)}
	mustPump(t, r)
	r.CompactEvery(5)
	if len(mod.compacted) != 2 || mod.compacted[1] != 25 {
		t.Fatalf("accepted %v, want [6 25]", mod.compacted)
	}
}

func TestReplicaWithoutStateMachineYieldsDecisionsOnly(t *testing.T) {
	mod := &fakeModule{installed: snapshotAt(3)}
	r := NewReplica(0, mod, nil)
	mod.decided = []types.Decision{incr(4, 4), incr(5, 5)}
	ds, replies, _, err := r.Pump()
	if err != nil || len(ds) != 2 || replies != nil {
		t.Fatalf("decisions %d, replies %v, err %v", len(ds), replies, err)
	}
	if mod.installed == nil {
		t.Fatal("a replica with nothing to restore consumed the module's installed snapshot")
	}
	if r.Exec() != nil || r.Compact() || r.SnapshotIndex() != 0 {
		t.Fatal("executor, compaction or snapshot index without a state machine")
	}
	r.CompactEvery(1)
	if mod.offered != 0 {
		t.Fatal("compaction offered without a state machine")
	}
}

// fakeReader is a fakeModule that confirms or drops reads when told to.
type fakeReader struct {
	fakeModule
	asked  []uint64
	states []types.ReadState
}

func (m *fakeReader) ReadIndex(id uint64, _ bool) { m.asked = append(m.asked, id) }

func (m *fakeReader) TakeReads() []types.ReadState {
	s := m.states
	m.states = nil
	return s
}

var _ Reader = (*fakeReader)(nil)

func readN() types.Value { return kvstore.Get("n").Encode() }

// A read runs through Query, never Apply: the executor's snapshot and
// the store's applied count — both state every replica must agree on —
// are what they were.
func TestReplicaReadChangesNothing(t *testing.T) {
	mod := &fakeReader{}
	store := kvstore.New()
	r := NewReplica(0, mod, store)
	mod.decided = []types.Decision{incr(1, 1), incr(2, 2)}
	mustPump(t, r)
	snap, applied := string(r.Exec().SnapshotState()), binary.BigEndian.Uint64(store.Snapshot())

	r.Read(8, 1, readN(), false)
	if len(mod.asked) != 1 {
		t.Fatalf("module asked %v", mod.asked)
	}
	mod.states = []types.ReadState{{ID: mod.asked[0], Index: 2}}
	replies := mustPump(t, r)
	if len(replies) != 1 || replies[0].Client != 8 || replies[0].SeqNo != 1 || string(replies[0].Result) != "2" {
		t.Fatalf("read answered %+v, want n = 2 for client 8", replies)
	}
	if string(r.Exec().SnapshotState()) != snap || binary.BigEndian.Uint64(store.Snapshot()) != applied {
		t.Fatal("a read changed the snapshot state or the applied count")
	}
}

// A confirmed read runs once the apply frontier reaches its index, after
// the decision that takes it there; a dropped one is reported, not run.
func TestReplicaReadWaitsForItsIndex(t *testing.T) {
	mod := &fakeReader{}
	r := NewReplica(0, mod, kvstore.New())
	mod.decided = []types.Decision{incr(1, 1)}
	mustPump(t, r)

	r.Read(8, 1, readN(), false)
	r.Read(9, 1, readN(), false)
	mod.states = []types.ReadState{{ID: 1, Index: 3}, {ID: 2, Dropped: true}}
	_, replies, dropped, err := r.Pump()
	if err != nil || len(replies) != 0 || len(dropped) != 1 || dropped[0].Client != 9 {
		t.Fatalf("before slot 3: replies %+v, dropped %+v, err %v", replies, dropped, err)
	}
	mod.decided = []types.Decision{incr(2, 2)}
	if replies := mustPump(t, r); len(replies) != 1 {
		t.Fatalf("at slot 2: %+v, want the increment's reply alone", replies)
	}
	mod.decided = []types.Decision{incr(3, 3)}
	replies = mustPump(t, r)
	if len(replies) != 2 || replies[1].Client != 8 || string(replies[1].Result) != "3" {
		t.Fatalf("at slot 3: %+v, want the increment's reply, then the read's n = 3", replies)
	}
}
