package live

import (
	"sync"
	"time"

	"fortyconsensus/internal/types"
)

// Module is the deterministic protocol contract the runtime hosts —
// the same Step/Tick/Drain surface runner.Node drives in simulation.
type Module[M any] interface {
	Step(M)
	Tick()
	Drain() []M
}

// NodeConfig tunes one hosted module's driver.
type NodeConfig struct {
	// TickEvery is the wall-clock duration of one protocol tick
	// (default 2ms). Every protocol timeout in the module's config is
	// expressed in ticks; this is the only place ticks meet the clock.
	TickEvery time.Duration
	// InboxLen bounds the inbound message queue (default 4096). A full
	// inbox drops messages — the lossy-network fault model again.
	InboxLen int
	// CallLen bounds the queued closures (default 1024).
	CallLen int
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.TickEvery <= 0 {
		c.TickEvery = 2 * time.Millisecond
	}
	if c.InboxLen <= 0 {
		c.InboxLen = 4096
	}
	if c.CallLen <= 0 {
		c.CallLen = 1024
	}
	return c
}

// Node runs one protocol module on a single goroutine: a select loop
// over the inbox, the tick ticker, and queued calls. Because only the
// loop goroutine ever touches the module, the protocol needs no
// locking — the simulator's single-threaded contract carries over
// verbatim. All module access from outside goes through Call/CallWait.
type Node[M any] struct {
	mod   Module[M]
	self  types.NodeID
	dest  func(M) types.NodeID
	send  func(M) // deliver one outbound message (dest != self)
	after func()  // post-event hook: pump decisions, route replies

	cfg   NodeConfig
	inbox chan M
	calls chan func()
	stop  chan struct{}
	done  chan struct{}

	startOnce, closeOnce sync.Once
}

// NewNode wraps mod. dest extracts a message's destination; send
// delivers outbound messages (self-addressed ones short-circuit
// through Step without touching send); after runs on the loop
// goroutine after every event, once the module's outbox is drained.
func NewNode[M any](mod Module[M], self types.NodeID, dest func(M) types.NodeID, send func(M), after func(), cfg NodeConfig) *Node[M] {
	cfg = cfg.withDefaults()
	return &Node[M]{
		mod: mod, self: self, dest: dest, send: send, after: after,
		cfg:   cfg,
		inbox: make(chan M, cfg.InboxLen),
		calls: make(chan func(), cfg.CallLen),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the event loop.
func (n *Node[M]) Start() {
	n.startOnce.Do(func() { go n.loop() })
}

func (n *Node[M]) loop() {
	defer close(n.done)
	ticker := time.NewTicker(n.cfg.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case m := <-n.inbox:
			n.mod.Step(m)
		case <-ticker.C:
			n.mod.Tick()
		case fn := <-n.calls:
			fn()
		}
		n.pump()
		if n.after != nil {
			n.after()
		}
	}
}

// pump drains the module's outbox until it stays empty: self-addressed
// messages are stepped immediately (which may produce more output);
// everything else goes to send.
func (n *Node[M]) pump() {
	for {
		out := n.mod.Drain()
		if len(out) == 0 {
			return
		}
		for _, m := range out {
			if n.dest(m) == n.self {
				n.mod.Step(m)
			} else {
				n.send(m)
			}
		}
	}
}

// Deliver enqueues one inbound message without blocking; it reports
// false (message dropped) when the inbox is full or the node stopped.
func (n *Node[M]) Deliver(m M) bool {
	select {
	case <-n.stop:
		return false
	default:
	}
	select {
	case n.inbox <- m:
		return true
	default:
		return false
	}
}

// Call queues fn to run on the loop goroutine — the only legal way to
// touch the module from outside. It reports false if the node has
// stopped (fn will never run); a full call queue blocks, which is
// deliberate backpressure on request dispatch.
func (n *Node[M]) Call(fn func()) bool {
	// Check stop on its own first: with both channels ready, a single
	// select would pick randomly, letting a Call slip in after Close.
	select {
	case <-n.stop:
		return false
	default:
	}
	select {
	case <-n.stop:
		return false
	case n.calls <- fn:
		return true
	}
}

// CallWait runs fn on the loop goroutine and waits for it to finish,
// reporting false if the node stopped first.
func (n *Node[M]) CallWait(fn func()) bool {
	ran := make(chan struct{})
	if !n.Call(func() { fn(); close(ran) }) {
		return false
	}
	select {
	case <-ran:
		return true
	case <-n.done:
		// The loop exited with our call still queued.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// Close stops the loop and waits for it to exit. Idempotent.
func (n *Node[M]) Close() {
	n.closeOnce.Do(func() { close(n.stop) })
	n.Start() // a never-started node still closes cleanly
	<-n.done
}
