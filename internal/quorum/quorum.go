// Package quorum implements the quorum systems underlying every protocol
// in the paper: simple majorities (Paxos, Raft), byzantine quorums
// (PBFT's 2f+1 of 3f+1), flexible quorums (Flexible Paxos, where only
// leader-election and replication quorums must intersect), and hybrid
// quorums (UpRight and SeeMoRe's 2m+c+1 of 3m+2c+1 for m byzantine and
// c crash faults).
//
// Protocols count votes with a Tally; quorum arithmetic and intersection
// properties are checked here, once, with property-based tests.
package quorum

import (
	"fmt"
	"slices"

	"fortyconsensus/internal/types"
)

// System answers "how many matching votes decide?" for one vote class.
type System interface {
	// Size returns the cluster size the system is configured for.
	Size() int
	// Threshold returns the number of votes that forms a quorum.
	Threshold() int
	// Describe names the system for tables and traces.
	Describe() string
}

// Majority is the crash-fault quorum: ⌊n/2⌋+1 of n, tolerating
// f = ⌊(n-1)/2⌋ crash failures. Any two majorities intersect in at least
// one node — the paper's "Safety Condition" slide.
type Majority struct{ N int }

// MajorityFor returns the majority system for a cluster tolerating f
// crash faults: n = 2f+1.
func MajorityFor(f int) Majority { return Majority{N: 2*f + 1} }

func (m Majority) Size() int        { return m.N }
func (m Majority) Threshold() int   { return m.N/2 + 1 }
func (m Majority) Describe() string { return fmt.Sprintf("majority(%d/%d)", m.Threshold(), m.N) }

// Faults returns the number of crash faults the system tolerates.
func (m Majority) Faults() int { return (m.N - 1) / 2 }

// Byzantine is the BFT quorum: 2f+1 of 3f+1. Any two such quorums
// intersect in at least f+1 nodes, hence in at least one correct node —
// the PBFT "Quorum and Network Size" slide.
type Byzantine struct{ F int }

func (b Byzantine) Size() int      { return 3*b.F + 1 }
func (b Byzantine) Threshold() int { return 2*b.F + 1 }
func (b Byzantine) Describe() string {
	return fmt.Sprintf("byzantine(%d/%d,f=%d)", b.Threshold(), b.Size(), b.F)
}

// CorrectIntersection returns the guaranteed number of correct nodes in
// the intersection of any two quorums: 2·(2f+1) − (3f+1) − f = f+1 … − f = 1.
func (b Byzantine) CorrectIntersection() int {
	return 2*b.Threshold() - b.Size() - b.F
}

// Fast is Fast Paxos's quorum system: the cluster grows to 3f+1 nodes
// (the slide: "the system includes 3f+1 nodes instead of 2f+1") while
// both fast-round and classic-round quorums stay at size 2f+1 = n−f, so
// the protocol remains live under f crashes. The payoff is the
// three-way intersection property — any two fast quorums and any classic
// quorum share at least 3(2f+1) − 2(3f+1) = 1 acceptor — which is what
// lets a recovering coordinator identify a possibly-chosen value after a
// collision.
type Fast struct{ F int }

func (q Fast) Size() int      { return 3*q.F + 1 }
func (q Fast) Threshold() int { return 2*q.F + 1 }
func (q Fast) Describe() string {
	return fmt.Sprintf("fast(%d/%d,f=%d)", q.Threshold(), q.Size(), q.F)
}

// ThreeWayIntersection returns the guaranteed overlap of two fast quorums
// with one classic quorum.
func (q Fast) ThreeWayIntersection() int { return 3*q.Threshold() - 2*q.Size() }

// Flexible is the Flexible Paxos quorum pair: phase-1 (leader election)
// quorums of size Q1 and phase-2 (replication) quorums of size Q2 over n
// nodes, valid whenever Q1+Q2 > n. Majority Paxos is the special case
// Q1 = Q2 = ⌊n/2⌋+1.
type Flexible struct {
	N  int
	Q1 int // leader-election quorum size
	Q2 int // replication quorum size
}

// Valid reports whether every Q1-quorum intersects every Q2-quorum.
func (f Flexible) Valid() bool {
	return f.Q1+f.Q2 > f.N && f.Q1 <= f.N && f.Q2 <= f.N && f.Q1 > 0 && f.Q2 > 0
}

func (f Flexible) Size() int      { return f.N }
func (f Flexible) Threshold() int { return f.Q2 }
func (f Flexible) Describe() string {
	return fmt.Sprintf("flexible(q1=%d,q2=%d,n=%d)", f.Q1, f.Q2, f.N)
}

// Trusted is the quorum system of trusted-component BFT (MinBFT,
// CheapBFT, TrInc): a trusted monotonic counter or attested log strips
// byzantine replicas of equivocation, so f byzantine faults need only
// 2f+1 replicas and quorums of f+1 — any two quorums intersect in at
// least one node, and every quorum contains at least one correct node.
type Trusted struct{ F int }

func (t Trusted) Size() int      { return 2*t.F + 1 }
func (t Trusted) Threshold() int { return t.F + 1 }
func (t Trusted) Describe() string {
	return fmt.Sprintf("trusted(%d/%d,f=%d)", t.Threshold(), t.Size(), t.F)
}

// CorrectMembers returns the guaranteed number of correct nodes in any
// quorum: (f+1) − f = 1, the non-equivocation argument's witness.
func (t Trusted) CorrectMembers() int { return t.Threshold() - t.F }

// Hybrid is the UpRight/SeeMoRe quorum for at most m byzantine and c
// crash faults: network 3m+2c+1, quorum 2m+c+1, guaranteed correct
// intersection m+1 — the "UpRight Failure Model" slide.
type Hybrid struct{ M, C int }

func (h Hybrid) Size() int      { return 3*h.M + 2*h.C + 1 }
func (h Hybrid) Threshold() int { return 2*h.M + h.C + 1 }
func (h Hybrid) Describe() string {
	return fmt.Sprintf("hybrid(%d/%d,m=%d,c=%d)", h.Threshold(), h.Size(), h.M, h.C)
}

// Intersection returns the guaranteed number of nodes shared by any two
// quorums: 2·(2m+c+1) − (3m+2c+1) = m+1.
func (h Hybrid) Intersection() int { return 2*h.Threshold() - h.Size() }

// Tally counts distinct votes toward a threshold. Duplicate votes from
// the same node are ignored, which is what makes retransmission safe.
// Voters sit in a slice searched linearly: clusters are tens of nodes.
type Tally struct {
	votes []types.NodeID
	need  int
}

// NewTally returns a tally requiring need distinct votes.
func NewTally(need int) *Tally {
	return &Tally{votes: make([]types.NodeID, 0, need), need: need}
}

// Add records a vote from n and reports whether the threshold is now met.
func (t *Tally) Add(n types.NodeID) bool {
	if !t.Has(n) {
		t.votes = append(t.votes, n)
	}
	return t.Reached()
}

// Has reports whether n already voted.
func (t *Tally) Has(n types.NodeID) bool { return slices.Contains(t.votes, n) }

// Count returns the number of distinct votes.
func (t *Tally) Count() int { return len(t.votes) }

// Need returns the threshold.
func (t *Tally) Need() int { return t.need }

// Reached reports whether the threshold is met.
func (t *Tally) Reached() bool { return len(t.votes) >= t.need }

// ValueTally counts votes per candidate value, used where voters may
// disagree (Fast Paxos collision recovery, interactive consistency).
type ValueTally struct {
	votes map[string]*Tally
	need  int
}

// NewValueTally returns a per-value tally with the given threshold.
func NewValueTally(need int) *ValueTally {
	return &ValueTally{votes: make(map[string]*Tally), need: need}
}

// Add records node n voting for value key and reports whether that value
// reached the threshold.
func (v *ValueTally) Add(n types.NodeID, key string) bool {
	t, ok := v.votes[key]
	if !ok {
		t = NewTally(v.need)
		v.votes[key] = t
	}
	return t.Add(n)
}

// Count returns the distinct-vote count for key.
func (v *ValueTally) Count(key string) int {
	if t, ok := v.votes[key]; ok {
		return t.Count()
	}
	return 0
}

// Leader returns the value with the most votes and its count; ties break
// lexicographically for determinism.
func (v *ValueTally) Leader() (string, int) {
	best, bestN := "", -1
	//lint:allow maporder the lexicographic tie-break makes the winner independent of iteration order
	for k, t := range v.votes {
		if t.Count() > bestN || (t.Count() == bestN && k < best) {
			best, bestN = k, t.Count()
		}
	}
	if bestN < 0 {
		return "", 0
	}
	return best, bestN
}

// Total returns the number of distinct (node,value) votes recorded.
func (v *ValueTally) Total() int {
	n := 0
	//lint:allow maporder summing counts is commutative; the total is order-independent
	for _, t := range v.votes {
		n += t.Count()
	}
	return n
}
