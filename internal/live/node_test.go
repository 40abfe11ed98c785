package live

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fortyconsensus/internal/types"
)

// fakeMsg is the message type of the test module.
type fakeMsg struct {
	to  types.NodeID
	tag string
}

// fakeModule records events and can emit queued outbound messages.
type fakeModule struct {
	mu      sync.Mutex
	stepped []fakeMsg
	ticks   int
	outbox  []fakeMsg
}

func (f *fakeModule) Step(m fakeMsg) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stepped = append(f.stepped, m)
	// A self-addressed "echo" message triggers one outbound reply, so
	// the test can watch pump() feed Step output back through send.
	if m.tag == "echo" {
		f.outbox = append(f.outbox, fakeMsg{to: 1, tag: "echoed"})
	}
}

func (f *fakeModule) Tick() {
	f.mu.Lock()
	f.ticks++
	f.mu.Unlock()
}

func (f *fakeModule) Drain() []fakeMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.outbox
	f.outbox = nil
	return out
}

func (f *fakeModule) tickCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ticks
}

func (f *fakeModule) steppedTags() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	tags := make([]string, len(f.stepped))
	for i, m := range f.stepped {
		tags[i] = m.tag
	}
	return tags
}

func newFakeNode(mod *fakeModule, send func(fakeMsg), after func()) *Node[fakeMsg] {
	return NewNode[fakeMsg](mod, 0, func(m fakeMsg) types.NodeID { return m.to },
		send, after, NodeConfig{TickEvery: time.Millisecond})
}

func TestNodeTickTranslation(t *testing.T) {
	mod := &fakeModule{}
	n := newFakeNode(mod, func(fakeMsg) {}, nil)
	n.Start()
	defer n.Close()
	// Wall-clock time must translate into Tick() calls on the loop.
	waitFor(t, 2*time.Second, func() bool { return mod.tickCount() >= 5 })
}

func TestNodeDeliverAndSend(t *testing.T) {
	mod := &fakeModule{}
	var mu sync.Mutex
	var sent []fakeMsg
	n := newFakeNode(mod, func(m fakeMsg) { mu.Lock(); sent = append(sent, m); mu.Unlock() }, nil)
	n.Start()
	defer n.Close()

	if !n.Deliver(fakeMsg{to: 0, tag: "echo"}) {
		t.Fatal("Deliver refused")
	}
	// Step("echo") queues an outbound message to node 1; pump must
	// route it through send because dest != self.
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(sent) == 1
	})
	mu.Lock()
	if sent[0].tag != "echoed" || sent[0].to != 1 {
		t.Fatalf("sent %+v", sent[0])
	}
	mu.Unlock()
}

func TestNodeSelfRouting(t *testing.T) {
	mod := &fakeModule{}
	n := NewNode[fakeMsg](mod, 0, func(m fakeMsg) types.NodeID { return m.to },
		func(m fakeMsg) { t.Errorf("self-addressed message leaked to send: %+v", m) },
		nil, NodeConfig{TickEvery: time.Hour}) // no ticks: isolate the routing path
	n.Start()
	defer n.Close()

	// Queue a self-addressed outbound message via a call, then verify
	// pump steps it inline instead of sending it.
	n.CallWait(func() { mod.outbox = append(mod.outbox, fakeMsg{to: 0, tag: "loopback"}) })
	waitFor(t, 2*time.Second, func() bool {
		for _, tag := range mod.steppedTags() {
			if tag == "loopback" {
				return true
			}
		}
		return false
	})
}

func TestNodeAfterHook(t *testing.T) {
	mod := &fakeModule{}
	var afterRuns sync.WaitGroup
	afterRuns.Add(1)
	var once sync.Once
	n := newFakeNode(mod, func(fakeMsg) {}, func() { once.Do(afterRuns.Done) })
	n.Start()
	defer n.Close()
	n.Deliver(fakeMsg{to: 0, tag: "x"})
	done := make(chan struct{})
	go func() { afterRuns.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("after hook never ran")
	}
}

func TestNodeCallSemantics(t *testing.T) {
	mod := &fakeModule{}
	n := newFakeNode(mod, func(fakeMsg) {}, nil)
	n.Start()

	var got int
	if !n.CallWait(func() { got = 42 }) {
		t.Fatal("CallWait on a running node failed")
	}
	if got != 42 {
		t.Fatal("CallWait returned before fn ran")
	}

	n.Close()
	n.Close() // idempotent

	if n.Deliver(fakeMsg{}) {
		t.Fatal("Deliver succeeded after Close")
	}
	if n.CallWait(func() {}) {
		t.Fatal("CallWait succeeded after Close")
	}
	if n.CallWait(func() {}) {
		t.Fatal("CallWait succeeded after Close")
	}
}

func TestNodeCloseWithoutStart(t *testing.T) {
	mod := &fakeModule{}
	n := newFakeNode(mod, func(fakeMsg) {}, nil)
	done := make(chan struct{})
	go func() { n.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close on a never-started node hung")
	}
}

// exclusiveModule is the single-threaded module contract made
// checkable: inside is a plain field, so two overlapping turns trip the
// check below (and the race detector). closed is set by a test once
// Close has returned; nothing may reach the module after that.
type exclusiveModule struct {
	t      *testing.T
	inside bool
	steps  int
	ticks  int
	calls  int
	closed atomic.Bool
}

func (m *exclusiveModule) enter() {
	if m.closed.Load() {
		m.t.Error("module entered after Close returned")
	}
	if m.inside {
		m.t.Error("two turns overlap inside the module")
	}
	m.inside = true
	runtime.Gosched() // widen the window another turn would have to fall in
}

func (m *exclusiveModule) leave() { m.inside = false }

func (m *exclusiveModule) Step(fakeMsg)     { m.enter(); m.steps++; m.leave() }
func (m *exclusiveModule) Tick()            { m.enter(); m.ticks++; m.leave() }
func (m *exclusiveModule) Drain() []fakeMsg { return nil }

func newExclusiveNode(mod *exclusiveModule, after func()) *Node[fakeMsg] {
	return NewNode[fakeMsg](mod, 0, func(m fakeMsg) types.NodeID { return m.to },
		func(fakeMsg) {}, after, NodeConfig{TickEvery: 100 * time.Microsecond})
}

// TestNodeTurnsNeverOverlap is the mutex contract's dynamic check: eight
// goroutines mix Deliver and CallWait against 100 µs ticks, and every
// event must have had the module — and the after hook — to itself.
func TestNodeTurnsNeverOverlap(t *testing.T) {
	const workers, perWorker = 8, 500
	mod := &exclusiveModule{t: t}
	afters := 0 // plain: the hook runs under the node's lock too
	n := newExclusiveNode(mod, func() { afters++ })
	n.Start()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var ok bool
				if (w+i)%2 == 0 {
					ok = n.Deliver(fakeMsg{to: 0, tag: "x"})
				} else {
					ok = n.CallWait(func() { mod.enter(); mod.calls++; mod.leave() })
				}
				if !ok {
					t.Error("running node refused an event")
				}
			}
		}(w)
	}
	wg.Wait()
	waitFor(t, 2*time.Second, func() bool {
		ticked := false
		n.CallWait(func() { ticked = mod.ticks > 0 })
		return ticked
	})
	n.Close()

	if mod.steps+mod.calls != workers*perWorker || mod.steps != mod.calls {
		t.Fatalf("steps=%d calls=%d, want %d each", mod.steps, mod.calls, workers*perWorker/2)
	}
	// The polling Calls above are events too, so afters has a floor only.
	if afters < mod.steps+mod.calls+mod.ticks {
		t.Fatalf("after ran %d times for %d events", afters, mod.steps+mod.calls+mod.ticks)
	}
}

// TestNodeTurnIsSynchronous pins what a turn is, on a node that was
// never started: the event, then the outbox pumped dry — a
// self-addressed message steps within the same turn, and what that
// step emits is sent — then the after hook exactly once; all of it
// before CallWait or Deliver returns.
func TestNodeTurnIsSynchronous(t *testing.T) {
	mod := &fakeModule{}
	var sent []string
	afters := 0
	n := newFakeNode(mod, func(m fakeMsg) { sent = append(sent, m.tag) }, func() { afters++ })
	defer n.Close()

	if !n.CallWait(func() { mod.outbox = append(mod.outbox, fakeMsg{to: 0, tag: "echo"}) }) {
		t.Fatal("CallWait before Start refused")
	}
	if got := mod.steppedTags(); len(got) != 1 || got[0] != "echo" {
		t.Fatalf("stepped %v inside the turn, want [echo]", got)
	}
	if len(sent) != 1 || sent[0] != "echoed" || afters != 1 {
		t.Fatalf("sent=%v afters=%d after one turn, want [echoed] and 1", sent, afters)
	}
	if !n.Deliver(fakeMsg{to: 0, tag: "x"}) || afters != 2 {
		t.Fatalf("afters=%d after a second event, want 2", afters)
	}
}

// TestNodeCloseRacingDeliver closes a node under a stream of Delivers:
// once Close has returned, the module and the hook are never entered
// again and every entry point reports false.
func TestNodeCloseRacingDeliver(t *testing.T) {
	mod := &exclusiveModule{t: t}
	n := newExclusiveNode(mod, func() {
		if mod.closed.Load() {
			t.Error("after hook ran after Close returned")
		}
	})
	n.Start()

	var accepted atomic.Int64
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-quit:
					return
				default:
				}
				if n.Deliver(fakeMsg{to: 0, tag: "x"}) {
					accepted.Add(1)
				}
			}
		}()
	}
	waitFor(t, 2*time.Second, func() bool { return accepted.Load() > 100 })
	n.Close()
	mod.closed.Store(true)
	time.Sleep(5 * time.Millisecond) // the senders keep trying against the closed node
	close(quit)
	wg.Wait()

	if int64(mod.steps) != accepted.Load() {
		t.Fatalf("module saw %d steps, Deliver accepted %d", mod.steps, accepted.Load())
	}
	if n.Deliver(fakeMsg{}) || n.CallWait(func() {}) {
		t.Fatal("a closed node accepted an event")
	}
	n.Close() // and a second Close still returns
}
