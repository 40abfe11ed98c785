// Package types holds the small set of identifiers and values shared by
// every consensus protocol in this repository: node identities, ballots,
// views, sequence numbers, and the command/value representation carried
// through replicated logs.
//
// Keeping these in one dependency-free package lets every protocol package
// (Paxos, PBFT, HotStuff, ...) and every substrate (simnet, runner, wal)
// agree on vocabulary without import cycles.
package types

import (
	"fmt"
	"strconv"
)

// NodeID identifies a replica, proposer, or client within a cluster.
// IDs are small dense integers assigned by the cluster configuration;
// zero is a valid ID.
type NodeID int

// String renders the ID as "n<k>" for traces and test output.
func (id NodeID) String() string { return "n" + strconv.Itoa(int(id)) }

// ClientID identifies a client session issuing commands. Client IDs share
// the NodeID space in simulations but are kept as a distinct type so that
// protocol code cannot confuse the two.
type ClientID int

// String renders the client ID as "c<k>".
func (id ClientID) String() string { return "c" + strconv.Itoa(int(id)) }

// Ballot is a Paxos ballot number: a pair ⟨Num, Owner⟩ forming a total
// order. Ballots are compared first by Num and then by Owner, exactly as
// in the paper's "Paxos is Leader-based" slide.
type Ballot struct {
	Num   uint64
	Owner NodeID
}

// ZeroBallot is the initial ballot ⟨0,0⟩ every acceptor starts with.
var ZeroBallot = Ballot{}

// Less reports whether b orders strictly before o.
func (b Ballot) Less(o Ballot) bool {
	if b.Num != o.Num {
		return b.Num < o.Num
	}
	return b.Owner < o.Owner
}

// LessEq reports whether b orders before or equal to o.
func (b Ballot) LessEq(o Ballot) bool { return !o.Less(b) }

// IsZero reports whether b is the initial ballot.
func (b Ballot) IsZero() bool { return b == ZeroBallot }

// Next returns the smallest ballot owned by owner that is strictly
// greater than b: ⟨b.Num+1, owner⟩.
func (b Ballot) Next(owner NodeID) Ballot { return Ballot{Num: b.Num + 1, Owner: owner} }

// String renders the ballot as "⟨num.owner⟩"-style "num.owner".
func (b Ballot) String() string {
	return fmt.Sprintf("%d.%d", b.Num, int(b.Owner))
}

// View numbers a configuration epoch in view-based protocols (PBFT,
// Zyzzyva, HotStuff, MinBFT, XFT). The primary of view v in a cluster of
// n replicas is replica v mod n.
type View uint64

// Primary returns the primary replica for this view in a cluster of n
// replicas whose IDs are 0..n-1.
func (v View) Primary(n int) NodeID { return NodeID(uint64(v) % uint64(n)) }

// Seq is a position in a replicated log (sequence number / log index).
// The first position is 1; 0 means "no entry".
type Seq uint64

// String renders the sequence number in decimal.
func (s Seq) String() string { return strconv.FormatUint(uint64(s), 10) }

// Value is an opaque command payload carried through consensus. Protocols
// never interpret values; the state machine layer does.
//
// Ownership discipline: a Value is immutable after creation. Whoever
// builds one (a client, a state-machine encoder) hands over ownership
// and must not write through the slice afterwards; everyone downstream
// — protocol messages, log entries, decisions, replies — shares the
// same backing array and must never mutate it. Readers that need a
// mutable or independently-lived copy (e.g. decoding into caller-owned
// buffers) call Clone at that boundary. This is what lets the protocol
// hot paths forward values by reference instead of defensively cloning
// on every message hop.
type Value []byte

// Equal reports byte-wise equality, treating nil and empty as equal.
func (v Value) Equal(o Value) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	c := make(Value, len(v))
	copy(c, v)
	return c
}

// String renders the value for traces, truncating long payloads.
func (v Value) String() string {
	const max = 24
	if len(v) <= max {
		return string(v)
	}
	return string(v[:max]) + "..."
}

// Decision is one committed slot of a replicated log, reported by a
// protocol node once the slot is durable under the protocol's commit rule.
type Decision struct {
	Slot Seq
	Val  Value
}

// Request is a client command submitted to a cluster: the client identity
// plus a client-local sequence number make requests idempotent, and Op is
// the opaque command body.
type Request struct {
	Client ClientID
	SeqNo  uint64
	Op     Value
}

// Key returns a stable dedup key for the request.
func (r Request) Key() string {
	return fmt.Sprintf("%d:%d", int(r.Client), r.SeqNo)
}

// Reply is the execution result returned to a client.
type Reply struct {
	Client ClientID
	SeqNo  uint64
	Result Value
	Node   NodeID // which replica produced the reply
}

// ReadState is the outcome of a read a leader confirms without a log
// entry: the commit frontier to serve it at, or dropped (lost the lead).
type ReadState struct {
	ID      uint64
	Index   Seq
	Dropped bool
}
