// Package live is the real-time cluster runtime: it hosts the
// repository's deterministic protocol modules — unchanged — behind a
// driver that translates wall-clock timers into protocol ticks and
// TCP-delivered bytes into handler calls. The protocol packages stay
// pure (no clocks, no goroutines, no sockets; the determinism contract
// still lint-enforced); every source of nondeterminism lives here.
//
// The pieces, bottom to top:
//
//	frame.go      length-prefixed binary framing: u32 big-endian length
//	              + payload, with a hello frame distinguishing peer and
//	              client connections on one listener.
//	codec.go      stateless per-message binary codecs (Codec[M]); every
//	              frame decodes independently, so a reconnect never
//	              loses codec state the way a streaming gob would.
//	              Every decoder here (messages, hello, client requests
//	              and responses, admin ops, the peer frame prefix) reads
//	              through internal/wire's Reader.
//	transport.go  peer and client connections over one listener. A node
//	              pair shares one TCP connection, dialed by the lower ID
//	              (eagerly, redialed with exponential backoff); the
//	              higher ID's reader hands the accepted socket to its
//	              writer, so both directions' frames travel on it and a
//	              reply carries the TCP ACK its request drew. One writer
//	              goroutine per peer with a bounded outbound queue, and
//	              outbound batching (the writer drains the queue and
//	              flushes once). Frames wait in the queue while no
//	              connection is up; a full queue drops the new one.
//	              Delivery is best-effort — the fault model every
//	              protocol here already tolerates.
//	node.go       the tick-translation driver. A hosted module has no
//	              goroutine of its own: a message, a call or a tick runs
//	              as one turn (the event, the outbox pumped dry, the
//	              after hook) under the node's mutex, on the goroutine
//	              that brought it, so Step/Tick/Submit are serialized
//	              without any protocol-level locking. Self-addressed
//	              messages short-circuit through Step within the turn.
//	server.go     a Server hosts one replica of every shard group (raft
//	              or multipaxos per group). Each group is the live host
//	              of an smr.Replica applying shard.Store and of its
//	              smr.Sessions table, the one the simulated shard groups
//	              keep too; the Server routes client requests to the
//	              owning group by key hash, and the group redirects the
//	              ones its table refuses with a leader hint.
//	client.go     the client library: leader discovery per shard,
//	              redirect following, retry with backoff across nodes,
//	              per-attempt timeouts, and request pipelining (many
//	              in-flight requests demultiplexed by request ID).
//	metrics.go    mutex-guarded per-shard counters and a submit→apply
//	              metrics.Histogram (fixed-size), served as JSON over HTTP.
//
// Who runs a group's turn, and what it may take while it does:
//
//	peer conn reader ──Deliver──┐
//	client conn loop ──CallWait─┼─▶ Node.mu ─▶ Step | fn | Tick
//	node ticker ───────Tick─────┘              pump ─▶ send  ─▶ Transport.mu ─▶ peer queue ─▶ writer goroutine
//	                                           after ─▶ reply ─▶ ClientConn.mu ─▶ conn queue ─▶ writer goroutine
//
// One TCP connection per node pair. Every peer connection, dialed or
// accepted, enters through servePeer, which hands the socket to the
// peer's writer and then reads it until it dies:
//
//	node 0 (lower ID)                        node 1
//	dialLoop ─── dial, hello ──────────────▶ acceptLoop ─▶ handleConn
//	  └ servePeer                              └ servePeer
//	      socket ─▶ writer(1)                      socket ─▶ writer(0)
//	      reads frames 1→0 ◀═══ one socket ═══▶    reads frames 0→1
//
// Lock order: a node's mutex, then Transport.mu or ClientConn.mu, both
// held only for a non-blocking enqueue. Nothing takes a node's mutex
// while holding either (Transport.Close and servePeer hold Transport.mu
// while they close connections and never call into a group), and no
// turn takes a second node's mutex. The writer goroutines are the only
// place a socket is written (after a peer connection's hello): a turn's
// frames coalesce into one write there, and a slow peer or client fills
// its own bounded queue, not a group's turn.
//
// What carries over from the simulation and what does not: replica
// state transitions remain deterministic functions of the delivered
// message sequence (the modules are the very ones the simulator and the
// fault campaigns verify), and the smr executor's session dedup makes
// client retries exactly-once. Scheduling, however, is real — message
// interleavings and election timing vary run to run — so live runs are
// not replayable; internal/simnet remains the verification substrate,
// and the live-vs-sim equivalence test pins the bridge between the two.
package live
