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
	"cmp"
	"fmt"
	"slices"

	"fortyconsensus/internal/types"
)

// Majority is the crash-fault quorum: ⌊n/2⌋+1 of n, tolerating
// f = ⌊(n-1)/2⌋ crash failures. Any two majorities intersect in at least
// one node — the paper's "Safety Condition" slide.
type Majority struct{ N int }

// MajorityFor returns the majority system for a cluster tolerating f
// crash faults: n = 2f+1.
func MajorityFor(f int) Majority { return Majority{N: 2*f + 1} }

func (m Majority) Size() int      { return m.N }
func (m Majority) Threshold() int { return m.N/2 + 1 }

// Byzantine is the BFT quorum: 2f+1 of 3f+1. Any two such quorums
// intersect in at least f+1 nodes, hence in at least one correct node —
// the PBFT "Quorum and Network Size" slide.
type Byzantine struct{ F int }

func (b Byzantine) Size() int      { return 3*b.F + 1 }
func (b Byzantine) Threshold() int { return 2*b.F + 1 }

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

// Hybrid is the UpRight/SeeMoRe quorum for at most m byzantine and c
// crash faults: network 3m+2c+1, quorum 2m+c+1, guaranteed correct
// intersection m+1 — the "UpRight Failure Model" slide.
type Hybrid struct{ M, C int }

func (h Hybrid) Size() int      { return 3*h.M + 2*h.C + 1 }
func (h Hybrid) Threshold() int { return 2*h.M + h.C + 1 }

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

// Reached reports whether the threshold is met.
func (t *Tally) Reached() bool { return len(t.votes) >= t.need }

// ValueTally counts votes per candidate value, used where voters may
// disagree (Fast Paxos collision recovery, interactive consistency).
type ValueTally struct {
	votes map[string]*Tally
	need  int
	total int // distinct (node, value) votes, kept as they are added
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
	if !t.Has(n) {
		v.total++
	}
	return t.Add(n)
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

// Pick is whom a leader asks when it needs a quorum of need among
// members, itself included: the fewest of the others, highest rank
// first, ties going to the later member. Phase 2 ranks a follower by the
// highest entry it acknowledged, a read probe by the newest round it
// answered. It reuses buf's array.
func Pick[R cmp.Ordered](buf, members []types.NodeID, self types.NodeID, need int, rank func(types.NodeID) R) []types.NodeID {
	buf = buf[:0]
	for i := len(members) - 1; i >= 0; i-- {
		if p := members[i]; p == self {
			need--
		} else {
			buf = append(buf, p)
		}
	}
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && rank(buf[j]) > rank(buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf[:min(max(need, 0), len(buf))]
}
