package nemesis

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// recordTarget logs applied operations as strings.
type recordTarget struct {
	log []string
	byz []string
}

func (r *recordTarget) Crash(n types.NodeID)   { r.log = append(r.log, "crash "+n.String()) }
func (r *recordTarget) Restart(n types.NodeID) { r.log = append(r.log, "restart "+n.String()) }
func (r *recordTarget) Partition(groups ...[]types.NodeID) {
	r.log = append(r.log, fmt.Sprintf("partition %d", len(groups)))
}
func (r *recordTarget) Heal() { r.log = append(r.log, "heal") }
func (r *recordTarget) CutLink(from, to types.NodeID) {
	r.log = append(r.log, "cut "+from.String()+">"+to.String())
}
func (r *recordTarget) RestoreLink(from, to types.NodeID) {
	r.log = append(r.log, "restore "+from.String()+">"+to.String())
}
func (r *recordTarget) SetLinkDelay(from, to types.NodeID, lo, hi int) {
	r.log = append(r.log, fmt.Sprintf("delay %v>%v %d %d", from, to, lo, hi))
}
func (r *recordTarget) ClearLinkDelay(from, to types.NodeID) {
	r.log = append(r.log, "cleardelay "+from.String()+">"+to.String())
}
func (r *recordTarget) SetDropRate(p float64) { r.log = append(r.log, fmt.Sprintf("drop %.2f", p)) }
func (r *recordTarget) ClearDropRate()        { r.log = append(r.log, "cleardrop") }
func (r *recordTarget) SetDupRate(p float64)  { r.log = append(r.log, fmt.Sprintf("dup %.2f", p)) }
func (r *recordTarget) ClearDupRate()         { r.log = append(r.log, "cleardup") }

// byzRecordTarget additionally implements ByzTarget.
type byzRecordTarget struct{ recordTarget }

func (r *byzRecordTarget) ArmByzantine(id types.NodeID, mode string) {
	r.byz = append(r.byz, "arm "+id.String()+" "+mode)
}
func (r *byzRecordTarget) DisarmByzantine(id types.NodeID) {
	r.byz = append(r.byz, "disarm "+id.String())
}

func TestInjectorOrderAndTiming(t *testing.T) {
	s := Schedule{Events: []Event{
		{At: 30, Op: OpHeal},
		{At: 10, Op: OpCrash, Node: 2},
		{At: 10, Op: OpPartition, Groups: [][]types.NodeID{{0}, {1, 2}}},
		{At: 20, Op: OpRestart, Node: 2},
	}}
	in := NewInjector(s)
	tgt := &recordTarget{}
	for tick := 0; tick <= 35; tick++ {
		in.Fire(tgt, tick)
	}
	want := []string{"crash n2", "partition 2", "restart n2", "heal"}
	if len(tgt.log) != len(want) {
		t.Fatalf("applied %v, want %v", tgt.log, want)
	}
	for i := range want {
		if tgt.log[i] != want[i] {
			t.Fatalf("applied %v, want %v", tgt.log, want)
		}
	}
	if in.next < len(in.events) {
		t.Fatal("injector not done after horizon")
	}

	// Firing at a late tick applies everything due, in order.
	in2 := NewInjector(s)
	tgt2 := &recordTarget{}
	if n := in2.Fire(tgt2, 1000); n != 4 {
		t.Fatalf("late fire applied %d events, want 4", n)
	}
}

func TestByzantineEventsNeedByzTarget(t *testing.T) {
	s := Schedule{Events: []Event{
		{At: 1, Op: OpByzantine, Node: 1, Mode: "mute"},
		{At: 5, Op: OpByzClear, Node: 1},
	}}
	// Plain target: byz events are skipped without panicking.
	in := NewInjector(s)
	plain := &recordTarget{}
	in.Fire(plain, 10)
	if len(plain.log) != 0 || len(plain.byz) != 0 {
		t.Fatalf("plain target applied %v/%v", plain.log, plain.byz)
	}
	// ByzTarget: armed and disarmed.
	in2 := NewInjector(s)
	bt := &byzRecordTarget{}
	in2.Fire(bt, 10)
	if len(bt.byz) != 2 || bt.byz[0] != "arm n1 mute" || bt.byz[1] != "disarm n1" {
		t.Fatalf("byz target applied %v", bt.byz)
	}
}

func nodeIDs(n int) []types.NodeID {
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	return ids
}

func TestGenerateDeterministicAndPaired(t *testing.T) {
	cfg := GenConfig{Nodes: nodeIDs(5), Horizon: 400, Faults: 8, Classes: AllClasses}
	a := Generate(simnet.NewRNG(42), cfg)
	b := Generate(simnet.NewRNG(42), cfg)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different schedules")
	}
	c := Generate(simnet.NewRNG(43), cfg)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if a.FaultCount() == 0 || a.FaultCount() > cfg.Faults {
		t.Fatalf("fault count %d outside (0, %d]", a.FaultCount(), cfg.Faults)
	}
	// Every initiating event has a matching later recovery.
	for i, e := range a.Events {
		if e.Op.IsRecovery() {
			continue
		}
		found := false
		for _, r := range a.Events[i:] {
			if r.Op == e.Op.Recovery() && r.Key() == e.Key() && r.At > e.At {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("event %d (%s at %d) has no recovery", i, e.Op, e.At)
		}
	}
	// Recoveries land inside the horizon.
	if a.MaxTick() >= cfg.Horizon {
		t.Fatalf("schedule extends to tick %d, horizon %d", a.MaxTick(), cfg.Horizon)
	}
}

func TestGenerateRespectsMaxDown(t *testing.T) {
	cfg := GenConfig{Nodes: nodeIDs(5), Horizon: 300, Faults: 30, Classes: []Op{OpCrash}, MaxDown: 2}
	s := Generate(simnet.NewRNG(7), cfg)
	// Sweep the schedule, tracking concurrent downs.
	down := map[types.NodeID]bool{}
	maxDown := 0
	for _, e := range s.Events {
		switch e.Op {
		case OpCrash:
			down[e.Node] = true
		case OpRestart:
			delete(down, e.Node)
		}
		if len(down) > maxDown {
			maxDown = len(down)
		}
	}
	if maxDown > 2 {
		t.Fatalf("generated schedule crashes %d nodes at once, budget 2", maxDown)
	}
}

// roundTripSpec is TestSpecRoundTrip's spec: a generated schedule over
// every class, with every optional header field set.
func roundTripSpec() *Spec {
	return &Spec{
		Protocol:  "raft",
		Nodes:     4,
		Seed:      12345,
		Horizon:   300,
		Hash:      "deadbeef",
		Violation: "log-prefix agreement: slot 3 differs",
		Schedule: Generate(simnet.NewRNG(99), GenConfig{
			Nodes: nodeIDs(4), Horizon: 300, Faults: 7, Classes: AllClasses,
		}),
	}
}

func TestSpecRoundTrip(t *testing.T) {
	sp := roundTripSpec()
	sched := sp.Schedule
	enc := sp.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, enc)
	}
	enc2 := got.Encode()
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip not canonical:\n--- first\n%s\n--- second\n%s", enc, enc2)
	}
	if got.Protocol != "raft" || got.Nodes != 4 || got.Seed != 12345 || got.Horizon != 300 ||
		got.Hash != "deadbeef" || got.Violation != "log-prefix agreement: slot 3 differs" {
		t.Fatalf("fields mangled: %+v", got)
	}
	if len(got.Schedule.Events) != len(sched.Events) {
		t.Fatalf("events: %d vs %d", len(got.Schedule.Events), len(sched.Events))
	}
}

// decodeErrorCases are specs Decode must refuse.
var decodeErrorCases = []string{
	"",                            // empty
	"nemesis/v2\nprotocol x\n",    // bad header
	"nemesis/v1\nprotocol raft\n", // no events
	"nemesis/v1\nprotocol raft\nnodes 3\nseed 1\nhorizon 10\nevents 1\ncrash 5 0\n",               // no end
	"nemesis/v1\nprotocol raft\nnodes 3\nseed 1\nhorizon 10\nevents 2\ncrash 5 0\nend\n",          // count mismatch
	"nemesis/v1\nprotocol raft\nnodes 3\nseed 1\nhorizon 10\nevents 1\nfrobnicate 5 0\nend\n",     // bad op
	"nemesis/v1\nnodes 3\nseed 1\nhorizon 10\nevents 0\nend\n",                                    // missing protocol
	"nemesis/v1\nprotocol raft\nnodes 3\nseed 1\nhorizon 10\nevents -1\ncrash 5 0\nheal 6\nend\n", // negative count
	"nemesis/v1\nprotocol raft\nnodes 3\nseed 1\nhorizon 10\nevents 1\ndrop 5 NaN\nend\n",         // NaN rate
}

func TestSpecDecodeErrors(t *testing.T) {
	for i, c := range decodeErrorCases {
		if _, err := Decode([]byte(c)); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestClassKeywords(t *testing.T) {
	for _, kw := range Keywords() {
		op, ok := ClassByKeyword(kw)
		if !ok || op.IsRecovery() {
			t.Fatalf("keyword %q did not resolve to an initiating op", kw)
		}
	}
	if _, ok := ClassByKeyword("restart"); ok {
		t.Fatal("recovery keyword resolved as a class")
	}
}

// allOpsSpec holds one event of each of the 16 ops, each recovery right
// after its initiator.
func allOpsSpec() *Spec {
	return &Spec{Protocol: "raft", Nodes: 5, Seed: 7, Horizon: 400, Hash: "0123abcd", Violation: "agreement: slot 2 differs",
		Schedule: Schedule{Events: []Event{
			{At: 10, Op: OpCrash, Node: 1},
			{At: 20, Op: OpRestart, Node: 1},
			{At: 30, Op: OpPartition, Groups: [][]types.NodeID{{0, 1}, {2, 3, 4}}},
			{At: 40, Op: OpHeal},
			{At: 50, Op: OpCutLink, From: 2, To: 3},
			{At: 60, Op: OpRestoreLink, From: 2, To: 3},
			{At: 70, Op: OpDelaySet, From: 3, To: 4, Lo: 5, Hi: 9},
			{At: 80, Op: OpDelayClear, From: 3, To: 4},
			{At: 90, Op: OpDropRate, Rate: 0.25},
			{At: 100, Op: OpDropClear},
			{At: 110, Op: OpDupRate, Rate: 0.125},
			{At: 120, Op: OpDupClear},
			{At: 130, Op: OpByzantine, Node: 4, Mode: "mute"},
			{At: 140, Op: OpByzClear, Node: 4},
			{At: 150, Op: OpRemoveNode, Node: 2},
			{At: 160, Op: OpAddNode, Node: 2},
		}}}
}

// allOpsBytes and allOpsKeys pin what allOpsSpec encodes to and its
// events' pairing keys: replay files on disk are written in this form.
const allOpsBytes = `nemesis/v1
protocol raft
nodes 5
seed 7
horizon 400
hash 0123abcd
violation agreement: slot 2 differs
events 16
crash 10 1
restart 20 1
partition 30 0,1|2,3,4
heal 40
cut 50 2 3
restore 60 2 3
delay 70 3 4 5 9
cleardelay 80 3 4
drop 90 0.25
cleardrop 100
dup 110 0.125
cleardup 120
byz 130 4 mute
clearbyz 140 4
rmnode 150 2
addnode 160 2
end
`

var allOpsKeys = []string{
	"crash:n1", "crash:n1", "partition", "partition", "cut:n2>n3", "cut:n2>n3", "delay:n3>n4", "delay:n3>n4",
	"drop", "drop", "dup", "dup", "byz:n4", "byz:n4", "rmnode:n2", "rmnode:n2",
}

func TestSpecBytesPinned(t *testing.T) {
	sp := allOpsSpec()
	if got := string(sp.Encode()); got != allOpsBytes {
		t.Fatalf("encoded as\n%s\npinned\n%s", got, allOpsBytes)
	}
	got, err := Decode([]byte(allOpsBytes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sp) {
		t.Fatalf("decoded %+v, want %+v", got, sp)
	}
	var keys []string
	for i, e := range sp.Schedule.Events {
		keys = append(keys, e.Key())
		if i%2 == 1 {
			continue
		}
		r := sp.Schedule.Events[i+1]
		if e.Op.IsRecovery() || !r.Op.IsRecovery() || e.Op.Recovery() != r.Op || r.Op.Initiator() != e.Op ||
			r.Op.Recovery() != r.Op || e.Op.Initiator() != e.Op || r.Op.Class() != e.Op.String() {
			t.Errorf("%s/%s do not pair", e.Op, r.Op)
		}
	}
	if fmt.Sprintf("%q", keys) != fmt.Sprintf("%q", allOpsKeys) {
		t.Errorf("keys %q, pinned %q", keys, allOpsKeys)
	}
}

// FuzzDecode: no panic; an error, or a spec whose encoding decodes to
// an equal spec and re-encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add(roundTripSpec().Encode())
	f.Add(allOpsSpec().Encode())
	for _, c := range decodeErrorCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, err := Decode(b)
		if err != nil {
			return
		}
		enc := sp.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("%q decoded, but its encoding %q does not: %v", b, enc, err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("%q decoded to %+v, its encoding to %+v", b, sp, again)
		}
		if enc2 := again.Encode(); !bytes.Equal(enc2, enc) {
			t.Fatalf("%q re-encodes as %q, then %q", b, enc, enc2)
		}
	})
}

// MaxTick returns the largest event tick (0 for an empty schedule).
func (s *Schedule) MaxTick() int {
	max := 0
	for _, e := range s.Events {
		if e.At > max {
			max = e.At
		}
	}
	return max
}
