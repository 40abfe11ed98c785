// Package core encodes the paper's conceptual contribution: the
// five-aspect taxonomy of consensus protocols (synchrony mode, failure
// model, processing strategy, participant awareness, complexity metrics)
// and the Consensus & Commitment (C&C) framework decomposing leader-based
// agreement into Leader Election → Value Discovery → Fault-tolerant
// Agreement → Decision.
//
// Every protocol package in this repository registers its *claimed*
// profile here — the fact box from the paper's slides — and the
// experiment harness compares those claims against *measured* behaviour
// (replica counts, quorum sizes, phases, message complexity). That
// claimed-versus-measured check is what reproducing a survey means.
//
// A Profile carries the aspects the harness reads: failure model,
// strategy, and the complexity metrics (nodes and quorum by formula,
// commit phases, common-case message complexity, C&C decomposition).
// Synchrony, participant awareness and view-change complexity are not
// declared: a column comes back together with the test that measures
// it (ROADMAP item 11), so no claim stands that nothing checks.
package core

import (
	"fmt"
	"strings"

	"fortyconsensus/internal/det"
)

// FailureModel is the second aspect.
type FailureModel int

const (
	Crash FailureModel = iota
	Byzantine
	Hybrid // some nodes crash-only, some byzantine (UpRight, SeeMoRe, XFT)
)

func (f FailureModel) String() string {
	switch f {
	case Crash:
		return "crash"
	case Byzantine:
		return "byzantine"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("FailureModel(%d)", int(f))
}

// Strategy is the third aspect.
type Strategy int

const (
	Pessimistic Strategy = iota
	Optimistic
)

func (s Strategy) String() string {
	if s == Optimistic {
		return "optimistic"
	}
	return "pessimistic"
}

// Complexity describes a protocol's message complexity class.
type Complexity int

const (
	Linear    Complexity = iota // O(n)
	Quadratic                   // O(n²)
	Cubic                       // O(n³)
)

func (c Complexity) String() string {
	switch c {
	case Linear:
		return "O(n)"
	case Quadratic:
		return "O(n²)"
	case Cubic:
		return "O(n³)"
	}
	return fmt.Sprintf("Complexity(%d)", int(c))
}

// Phase is one stage of the C&C framework.
type Phase int

const (
	LeaderElection Phase = iota
	ValueDiscovery
	FTAgreement
	Decision
)

func (p Phase) String() string {
	switch p {
	case LeaderElection:
		return "leader-election"
	case ValueDiscovery:
		return "value-discovery"
	case FTAgreement:
		return "fault-tolerant-agreement"
	case Decision:
		return "decision"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Profile is one protocol's fact box: its aspect vector plus the
// arithmetic of its replication requirement.
type Profile struct {
	Name     string
	Failure  FailureModel
	Strategy Strategy

	// NodesFor returns the total replicas required to tolerate the given
	// fault budget (f crash or byzantine faults; hybrid protocols use m
	// byzantine + c crash).
	NodesFor func(f int) int
	// NodesFormula is the human-readable form ("2f+1", "3f+1", "3m+2c+1").
	NodesFormula string
	// QuorumFor returns the commit-quorum size at the given fault budget.
	QuorumFor func(f int) int
	// CommitPhases is the number of message delays from proposal to
	// commit on the common path (the paper's "phases").
	CommitPhases int
	// AltPhases, when nonzero, is the alternate path's phase count
	// (Fast Paxos 1-or-3, Zyzzyva 1-or-3, SeeMoRe 2-or-3).
	AltPhases int
	// Complexity is the common-case message complexity class.
	Complexity Complexity
	// Decomposition lists the C&C phases the protocol realizes, in order.
	Decomposition []Phase
	// Notes carries slide-level remarks (trusted hardware, pipelining...).
	Notes string
}

// PhasesString renders "2" or "1 or 3".
func (p Profile) PhasesString() string {
	if p.AltPhases == 0 || p.AltPhases == p.CommitPhases {
		return fmt.Sprintf("%d", p.CommitPhases)
	}
	lo, hi := p.CommitPhases, p.AltPhases
	if hi < lo {
		lo, hi = hi, lo
	}
	return fmt.Sprintf("%d or %d", lo, hi)
}

// DecompositionString renders the C&C phase list.
func (p Profile) DecompositionString() string {
	parts := make([]string, len(p.Decomposition))
	for i, ph := range p.Decomposition {
		parts[i] = ph.String()
	}
	return strings.Join(parts, " → ")
}

// registry holds every registered protocol profile, keyed by name.
var registry = map[string]Profile{}

// Register records a protocol's claimed profile. Protocol packages call
// it from init; registering the same name twice panics because it is
// always a programming error.
func Register(p Profile) {
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("core: duplicate profile %q", p.Name))
	}
	if p.NodesFor == nil || p.QuorumFor == nil {
		panic(fmt.Sprintf("core: profile %q missing node/quorum arithmetic", p.Name))
	}
	registry[p.Name] = p
}

// All returns every registered profile sorted by name.
func All() []Profile {
	out := make([]Profile, 0, len(registry))
	for _, name := range det.SortedKeys(registry) {
		out = append(out, registry[name])
	}
	return out
}
