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
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.TickEvery <= 0 {
		c.TickEvery = 2 * time.Millisecond
	}
	return c
}

// Node hosts one protocol module without a goroutine of its own: an
// event — an inbound message, a tick, a call — runs as one turn on the
// goroutine that brought it (a peer connection's reader, a client
// connection's request loop, the ticker), under the node's mutex. A
// turn is the event, then the module's outbox pumped dry, then the
// after hook. The mutex keeps the simulator's single-threaded module
// contract, so the protocol needs no locking of its own; all module
// access from outside goes through CallWait.
//
// A started node whose module may hold a read lease keeps its tick count
// within a tick of the wall clock: a turn that finds it more than one
// tick behind (the ticker starved, or a turn held the lock) first runs
// the ticks it missed, until the module's lease has lapsed. A leader's
// lease is counted in its ticks and its voters' refusal in theirs, so a
// leader's clock may not stall while its voters' runs on. Any other
// node lets missed ticks go, as a starved ticker does: a voter whose
// clock lags only refuses other candidates for longer.
type Node[M any] struct {
	mod   Module[M]
	self  types.NodeID
	dest  func(M) types.NodeID
	send  func(M) // deliver one outbound message (dest != self)
	after func()  // post-event hook: pump decisions, route replies
	cfg   NodeConfig

	mu      sync.Mutex // held for a whole turn
	started bool
	stopped bool
	epoch   time.Time      // when Start ran: tick k is due at epoch + k·TickEvery
	ticks   int64          // ticks run since Start
	lease   leaser         // mod, if it may hold a read lease
	stop    chan struct{}  // closed by Close: ends the ticker
	ticker  sync.WaitGroup // the ticker goroutine
}

// NewNode wraps mod. dest extracts a message's destination; send
// delivers outbound messages (self-addressed ones short-circuit
// through Step without touching send); after runs at the end of every
// turn, once the module's outbox is drained.
//
// send and after run with the node's mutex held, on whichever goroutine
// has the turn: they must not block and must not call back into this
// Node.
func NewNode[M any](mod Module[M], self types.NodeID, dest func(M) types.NodeID, send func(M), after func(), cfg NodeConfig) *Node[M] {
	n := &Node[M]{
		mod: mod, self: self, dest: dest, send: send, after: after,
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
	}
	n.lease, _ = mod.(leaser)
	return n
}

// Start launches the ticker, the one goroutine a node owns. Deliver
// and CallWait work without it; only ticks need Start.
func (n *Node[M]) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.stopped {
		return
	}
	n.started = true
	n.epoch = time.Now()
	n.ticker.Add(1)
	go n.tickLoop()
}

// tickLoop translates wall-clock time into Tick turns.
func (n *Node[M]) tickLoop() {
	defer n.ticker.Done()
	t := time.NewTicker(n.cfg.TickEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case now := <-t.C:
			n.turn(func() { n.onTicker(now) })
		}
	}
}

// onTicker is the ticker's event, stamped now: the tick due then, unless
// a turn that caught up already ran it. Missed ticks it lets go.
func (n *Node[M]) onTicker(now time.Time) {
	due := int64(now.Sub(n.epoch) / n.cfg.TickEvery)
	if n.ticks < due {
		n.tick()
	}
	n.ticks = max(n.ticks, due-1)
}

func (n *Node[M]) tick() {
	n.mod.Tick()
	n.ticks++
}

// clock, at a started node's turn, runs the ticks the node missed while
// its module is Leasing: only then is the wall clock read. It leaves one
// tick for the ticker, whose normal lag that is; catching it up at every
// turn would move ticks off the ticker and onto the request path. The
// loop stops as soon as the module stops Leasing, when every lease has
// lapsed whatever the election timeout, so a far-behind leader runs only
// the ticks its lease spans and a follower runs none: under the race
// detector a far-behind follower's tick can outlast the tick interval,
// and catching it up would spend each turn on ticks (Multi-Paxos'
// TestJoinerCatchesUpUnderWrites).
func (n *Node[M]) clock() {
	if n.lease == nil || !n.lease.Leasing() {
		return
	}
	due := int64(time.Since(n.epoch) / n.cfg.TickEvery)
	for due-n.ticks > 1 && n.lease.Leasing() {
		n.tick()
	}
	n.ticks = max(n.ticks, due-1)
}

// leaser is the module surface the clock rule reads: whether the module
// may answer a read on a lease (replog.Core.Leasing).
type leaser interface{ Leasing() bool }

// turn runs one event to completion under the node's mutex, reporting
// false (event not run) if the node has stopped.
func (n *Node[M]) turn(event func()) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return false
	}
	if n.started {
		n.clock()
	}
	event()
	n.pump()
	if n.after != nil {
		n.after()
	}
	return true
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

// Deliver steps one inbound message through the module on the calling
// goroutine, waiting for a turn in progress; it reports false (message
// dropped) only when the node has stopped. A module that cannot keep up
// therefore holds its callers back — for a peer connection's reader,
// that is TCP backpressure on the sender.
func (n *Node[M]) Deliver(m M) bool {
	return n.turn(func() { n.mod.Step(m) })
}

// CallWait runs fn as one turn on the calling goroutine and returns
// when it has finished — the only legal way to touch the module from
// outside. It reports false if the node has stopped (fn did not run).
// fn must not block and must not call back into this Node.
func (n *Node[M]) CallWait(fn func()) bool { return n.turn(fn) }

// Close stops the node and returns once no turn is running and the
// ticker has exited: after it, nothing reaches the module or the hooks,
// and Deliver/CallWait report false. Idempotent.
func (n *Node[M]) Close() {
	n.mu.Lock()
	if !n.stopped {
		n.stopped = true
		close(n.stop)
	}
	n.mu.Unlock()
	n.ticker.Wait()
}
