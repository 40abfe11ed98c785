package runner

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// pingMsg is a toy protocol message: a counter relayed around a ring.
type pingMsg struct {
	from, to types.NodeID
	hop      int
	kind     string
}

// ringNode forwards each received ping to the next node until hop limit.
type ringNode struct {
	id       types.NodeID
	n        int
	maxHop   int
	received int
	out      []pingMsg
}

func (r *ringNode) Step(m pingMsg) {
	r.received++
	if m.hop < r.maxHop {
		r.out = append(r.out, pingMsg{
			from: r.id, to: types.NodeID((int(r.id) + 1) % r.n),
			hop: m.hop + 1, kind: "ping",
		})
	}
}
func (r *ringNode) Tick() {}
func (r *ringNode) Drain() []pingMsg {
	out := r.out
	r.out = nil
	return out
}

func ringCluster(n, maxHop int, fabric *simnet.Fabric) (*Cluster[pingMsg], []*ringNode) {
	c := New(Config[pingMsg]{
		Fabric: fabric,
		Dest:   func(m pingMsg) types.NodeID { return m.to },
		Src:    func(m pingMsg) types.NodeID { return m.from },
		Kind:   func(m pingMsg) string { return m.kind },
	})
	nodes := make([]*ringNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = &ringNode{id: types.NodeID(i), n: n, maxHop: maxHop}
		c.Add(types.NodeID(i), nodes[i])
	}
	return c, nodes
}

func TestRingDelivery(t *testing.T) {
	c, nodes := ringCluster(5, 10, nil)
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c.Run(30)
	total := 0
	for _, n := range nodes {
		total += n.received
	}
	if total != 11 { // injected ping + 10 relays
		t.Fatalf("total received = %d, want 11", total)
	}
	st := c.Stats()
	if st.Delivered != 11 || st.ByKind["ping"] != 11 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Sent != 10 { // injections bypass the fabric
		t.Fatalf("sent = %d, want 10", st.Sent)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int, Stats) {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 7, DropRate: 0.1, Seed: 99})
		c, nodes := ringCluster(7, 50, fab)
		c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
		c.Run(200)
		total := 0
		for _, n := range nodes {
			total += n.received
		}
		return total, c.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1.Delivered != s2.Delivered || s1.Dropped != s2.Dropped {
		t.Fatalf("replay diverged: (%d,%+v) vs (%d,%+v)", t1, s1, t2, s2)
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	c, nodes := ringCluster(3, 100, nil)
	c.Crash(1)
	if !c.Crashed(1) {
		t.Fatal("Crashed(1) false after Crash")
	}
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c.Run(50)
	if nodes[1].received != 0 {
		t.Fatalf("crashed node received %d messages", nodes[1].received)
	}
	// The ring is broken at node 1, so node 2 gets nothing either.
	if nodes[2].received != 0 {
		t.Fatalf("node past crash received %d", nodes[2].received)
	}
	c.Restart(1)
	c.Inject(pingMsg{from: -1, to: 1, hop: 0, kind: "ping"})
	c.Run(50)
	if nodes[1].received == 0 {
		t.Fatal("restarted node received nothing")
	}
}

func TestInterceptorEquivocation(t *testing.T) {
	c, nodes := ringCluster(4, 3, nil)
	// Node 0 duplicates everything it sends to two destinations.
	c.Intercept(0, func(m pingMsg) []pingMsg {
		m2 := m
		m2.to = types.NodeID((int(m.to) + 1) % 4)
		return []pingMsg{m, m2}
	})
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c.Run(30)
	if nodes[2].received == 0 {
		t.Fatal("equivocated copy never arrived")
	}
}

func TestInterceptorDrop(t *testing.T) {
	c, nodes := ringCluster(3, 10, nil)
	c.Intercept(0, func(m pingMsg) []pingMsg { return nil })
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c.Run(30)
	if nodes[1].received != 0 {
		t.Fatal("dropped message was delivered")
	}
}

func TestRunUntil(t *testing.T) {
	c, nodes := ringCluster(5, 10, nil)
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	ok := c.RunUntil(func() bool { return nodes[0].received >= 2 }, 100)
	if !ok {
		t.Fatal("RunUntil never satisfied")
	}
	if c.Now() >= 100 {
		t.Fatalf("RunUntil ran to the cap (%d ticks)", c.Now())
	}
	if c.RunUntil(func() bool { return false }, 5) {
		t.Fatal("RunUntil reported success on constant-false predicate")
	}
}

// tickerNode emits one message per tick, to exercise Tick-driven sends.
type tickerNode struct {
	id    types.NodeID
	sent  int
	out   []pingMsg
	recvd int
}

func (tk *tickerNode) Step(m pingMsg) { tk.recvd++ }
func (tk *tickerNode) Tick() {
	tk.sent++
	tk.out = append(tk.out, pingMsg{from: tk.id, to: 1 - tk.id, kind: "tick"})
}
func (tk *tickerNode) Drain() []pingMsg { out := tk.out; tk.out = nil; return out }

func TestTickDrivenSends(t *testing.T) {
	c := New(Config[pingMsg]{
		Dest: func(m pingMsg) types.NodeID { return m.to },
		Src:  func(m pingMsg) types.NodeID { return m.from },
	})
	a, b := &tickerNode{id: 0}, &tickerNode{id: 1}
	c.Add(0, a)
	c.Add(1, b)
	c.Run(10)
	if a.sent != 10 || b.sent != 10 {
		t.Fatalf("ticks: %d, %d; want 10 each", a.sent, b.sent)
	}
	if a.recvd == 0 || b.recvd == 0 {
		t.Fatal("tick-driven messages never delivered")
	}
	if c.queue.count == 0 {
		t.Log("note: all messages flushed (MinDelay=1)")
	}
	c.ResetStats()
	if c.Stats().Delivered != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestInjectDelayed(t *testing.T) {
	c, nodes := ringCluster(3, 0, nil)
	c.InjectDelayed(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"}, 10)
	c.Run(5)
	if nodes[0].received != 0 {
		t.Fatal("delayed injection arrived early")
	}
	c.Run(10)
	if nodes[0].received != 1 {
		t.Fatal("delayed injection never arrived")
	}
	// Delay below 1 clamps to 1.
	c.InjectDelayed(pingMsg{from: -1, to: 1, hop: 0, kind: "ping"}, -5)
	c.Run(2)
	if nodes[1].received != 1 {
		t.Fatal("clamped injection lost")
	}
}

// traceNode records every delivery as "tick:receiver:sender:hop" in a
// shared trace and fans each message out to two neighbours, producing a
// schedule that is sensitive to delivery and send ordering.
type traceNode struct {
	id     types.NodeID
	n      int
	maxHop int
	c      *Cluster[pingMsg]
	trace  *[]string
	out    []pingMsg
}

func (tn *traceNode) Step(m pingMsg) {
	*tn.trace = append(*tn.trace, fmt.Sprintf("%d:%d:%d:%d", tn.c.Now(), tn.id, m.from, m.hop))
	if m.hop < tn.maxHop {
		for d := 1; d <= 2; d++ {
			tn.out = append(tn.out, pingMsg{
				from: tn.id, to: types.NodeID((int(tn.id) + d) % tn.n),
				hop: m.hop + 1, kind: "ping",
			})
		}
	}
}
func (tn *traceNode) Tick()            {}
func (tn *traceNode) Drain() []pingMsg { out := tn.out; tn.out = nil; return out }

// TestAddOrderDoesNotAffectSchedule registers the same nodes in
// different orders and requires byte-identical delivery traces: the
// cluster's iteration order is defined by NodeID, never by insertion
// history.
func TestAddOrderDoesNotAffectSchedule(t *testing.T) {
	run := func(order []types.NodeID) []string {
		fab := simnet.NewFabric(simnet.Options{MinDelay: 1, MaxDelay: 5, DropRate: 0.05, Seed: 42})
		c := New(Config[pingMsg]{
			Fabric: fab,
			Dest:   func(m pingMsg) types.NodeID { return m.to },
			Src:    func(m pingMsg) types.NodeID { return m.from },
			Kind:   func(m pingMsg) string { return m.kind },
		})
		var trace []string
		for _, id := range order {
			c.Add(id, &traceNode{id: id, n: len(order), maxHop: 6, c: c, trace: &trace})
		}
		c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
		c.Run(60)
		return trace
	}
	want := run([]types.NodeID{0, 1, 2, 3})
	for _, order := range [][]types.NodeID{{3, 1, 0, 2}, {2, 3, 1, 0}} {
		got := run(order)
		if len(got) != len(want) {
			t.Fatalf("Add order %v: %d deliveries, want %d", order, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Add order %v: delivery %d = %q, want %q", order, i, got[i], want[i])
			}
		}
	}
}

// TestDupRateDoubleDelivery forces DupRate to 1 so every fabric send is
// delivered twice while counting as a single Sent message.
func TestDupRateDoubleDelivery(t *testing.T) {
	fab := simnet.NewFabric(simnet.Options{DupRate: 1, Seed: 1})
	c, nodes := ringCluster(3, 1, fab)
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c.Run(10)
	// Node 0 relays the injected ping once; the fabric duplicates it.
	if nodes[1].received != 2 {
		t.Fatalf("duplicate delivery count = %d, want 2", nodes[1].received)
	}
	st := c.Stats()
	if st.Sent != 1 {
		t.Fatalf("Sent = %d, want 1 (duplication is a fabric effect)", st.Sent)
	}
	if st.Delivered != 3 { // injected ping + both copies
		t.Fatalf("Delivered = %d, want 3", st.Delivered)
	}
}

// TestInterceptorExpansionAccounting checks that an interceptor's
// replacement messages — none for drops, several for equivocation — are
// what the cluster actually sends and charges to Stats.
func TestInterceptorExpansionAccounting(t *testing.T) {
	c, nodes := ringCluster(4, 1, nil)
	calls := 0
	c.Intercept(0, func(m pingMsg) []pingMsg {
		calls++
		if calls == 1 {
			return nil // censor the first relay entirely
		}
		m2, m3 := m, m
		m2.to = 2
		m3.to = 3
		return []pingMsg{m2, m3, m2}
	})
	// Two pings through node 0: the first relay is censored, the second
	// replaced by three messages to other destinations.
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c.Run(5)
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c.Run(15)
	if nodes[1].received != 0 {
		t.Fatalf("censored destination received %d", nodes[1].received)
	}
	if nodes[2].received != 2 || nodes[3].received != 1 {
		t.Fatalf("expanded deliveries = %d,%d; want 2,1", nodes[2].received, nodes[3].received)
	}
	st := c.Stats()
	if st.Sent != 3 { // the three replacement messages; the censored one never reaches the fabric
		t.Fatalf("Sent = %d, want 3", st.Sent)
	}
}

// TestDeliveryAfterRestart pins the crash-window semantics: a message
// due while its destination is crashed is dropped, while one due after
// the node restarted is delivered.
func TestDeliveryAfterRestart(t *testing.T) {
	c, nodes := ringCluster(2, 0, nil)
	// Due at tick 2; node 1 crashes at tick 0 and restarts at tick 5.
	c.InjectDelayed(pingMsg{from: -1, to: 1, hop: 0, kind: "ping"}, 2)
	// Due at tick 8, after the restart.
	c.InjectDelayed(pingMsg{from: -1, to: 1, hop: 0, kind: "ping"}, 8)
	c.Crash(1)
	c.Run(4)
	if nodes[1].received != 0 {
		t.Fatalf("crashed node received %d messages", nodes[1].received)
	}
	if got := c.Stats().Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1 (message due mid-crash)", got)
	}
	c.Restart(1)
	c.Run(6)
	if nodes[1].received != 1 {
		t.Fatalf("post-restart deliveries = %d, want 1", nodes[1].received)
	}
}

// TestPendingAccounting tracks the in-flight queue through injections,
// deliveries, and fabric duplication.
func TestPendingAccounting(t *testing.T) {
	fab := simnet.NewFabric(simnet.Options{DupRate: 1, Seed: 3})
	c, nodes := ringCluster(3, 1, fab)
	if c.queue.count != 0 {
		t.Fatalf("fresh cluster Pending = %d", c.queue.count)
	}
	c.InjectDelayed(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"}, 1)
	c.InjectDelayed(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"}, 3)
	if c.queue.count != 2 {
		t.Fatalf("Pending after two injections = %d, want 2", c.queue.count)
	}
	// Tick 1: first injection delivered; node 0's relay plus its fabric
	// duplicate join the second injection in flight.
	c.Step()
	if c.queue.count != 3 {
		t.Fatalf("Pending after tick 1 = %d, want 3", c.queue.count)
	}
	c.Run(10)
	if c.queue.count != 0 {
		t.Fatalf("Pending after drain = %d, want 0", c.queue.count)
	}
	if nodes[1].received != 4 { // both relays, each duplicated
		t.Fatalf("node 1 received %d, want 4", nodes[1].received)
	}
}

func TestFaultEventCounters(t *testing.T) {
	c, _ := ringCluster(4, 3, nil)
	c.Crash(1)
	c.Crash(1) // counts again: exposure counts injections, not transitions
	c.Restart(1)
	c.Partition([]types.NodeID{0, 1}, []types.NodeID{2, 3})
	c.Heal()
	c.CutLink(0, 2)
	c.CutLink(2, 0)
	c.RestoreLink(0, 2)
	st := c.Stats()
	if st.Crashes != 2 || st.Restarts != 1 || st.Partitions != 1 || st.Heals != 1 || st.CutLinks != 2 {
		t.Fatalf("fault counters = %+v", st)
	}

	// Counters flow through Add like the message counters, and ByKind
	// is made on first use.
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c.Run(3)
	st = c.Stats()
	var sum Stats
	sum.Add(st)
	sum.Add(st)
	if sum.Crashes != 4 || sum.Restarts != 2 || sum.Partitions != 2 || sum.Heals != 2 || sum.CutLinks != 4 {
		t.Fatalf("Add fault counters = %+v", sum)
	}
	if sum.Sent != 2*st.Sent || sum.Delivered != 2*st.Delivered || sum.Dropped != 2*st.Dropped || sum.Ticks != 2*st.Ticks {
		t.Fatalf("Add message counters = %+v, want twice %+v", sum, st)
	}
	if st.ByKind["ping"] == 0 || sum.ByKind["ping"] != 2*st.ByKind["ping"] {
		t.Fatalf("Add ByKind = %v, want twice %v", sum.ByKind, st.ByKind)
	}
}

func TestArmByzantineModes(t *testing.T) {
	// mute: node 1 receives but relays nothing, so the ring stops there.
	c, nodes := ringCluster(3, 6, nil)
	c.ArmByzantine(1, "mute")
	c.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c.Run(20)
	if nodes[2].received != 0 {
		t.Fatalf("mute: node 2 received %d messages, want 0", nodes[2].received)
	}
	if nodes[1].received != 1 {
		t.Fatalf("mute: node 1 received %d, want 1", nodes[1].received)
	}

	// dup: node 1 sends everything twice, so downstream counts double.
	c2, nodes2 := ringCluster(3, 2, nil)
	c2.ArmByzantine(1, "dup")
	c2.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c2.Run(20)
	if nodes2[2].received != 2 {
		t.Fatalf("dup: node 2 received %d, want 2", nodes2[2].received)
	}

	// disarm restores normal relaying.
	c3, nodes3 := ringCluster(3, 6, nil)
	c3.ArmByzantine(1, "mute")
	c3.DisarmByzantine(1)
	c3.Inject(pingMsg{from: -1, to: 0, hop: 0, kind: "ping"})
	c3.Run(20)
	if nodes3[2].received == 0 {
		t.Fatal("disarm: node 2 received nothing")
	}
}
