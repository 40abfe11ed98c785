package quorum

import (
	"fmt"
	"testing"
	"testing/quick"

	"fortyconsensus/internal/types"
)

func TestMajorityArithmetic(t *testing.T) {
	for f := 0; f <= 10; f++ {
		m := MajorityFor(f)
		if m.Size() != 2*f+1 {
			t.Fatalf("f=%d: size %d, want %d", f, m.Size(), 2*f+1)
		}
		if m.Threshold() != f+1 {
			t.Fatalf("f=%d: threshold %d, want %d", f, m.Threshold(), f+1)
		}
		if m.Faults() != f {
			t.Fatalf("f=%d: faults %d", f, m.Faults())
		}
		// Intersection: two quorums always share a node.
		if 2*m.Threshold() <= m.Size() {
			t.Fatalf("f=%d: majorities do not intersect", f)
		}
	}
}

func TestMajorityIntersectionProperty(t *testing.T) {
	f := func(n uint8) bool {
		if n == 0 {
			return true
		}
		m := Majority{N: int(n)}
		return 2*m.Threshold() > m.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByzantineArithmetic(t *testing.T) {
	for f := 1; f <= 10; f++ {
		b := Byzantine{F: f}
		if b.Size() != 3*f+1 || b.Threshold() != 2*f+1 {
			t.Fatalf("f=%d: %d/%d", f, b.Threshold(), b.Size())
		}
		// Two quorums intersect in ≥ f+1 nodes, so ≥ 1 correct node.
		inter := 2*b.Threshold() - b.Size()
		if inter != f+1 {
			t.Fatalf("f=%d: intersection %d, want %d", f, inter, f+1)
		}
		if b.CorrectIntersection() != 1 {
			t.Fatalf("f=%d: correct intersection %d, want 1", f, b.CorrectIntersection())
		}
	}
}

func TestTrustedArithmetic(t *testing.T) {
	for f := 0; f <= 10; f++ {
		tr := Trusted{F: f}
		if tr.Size() != 2*f+1 || tr.Threshold() != f+1 {
			t.Fatalf("f=%d: %d/%d", f, tr.Threshold(), tr.Size())
		}
		// Two quorums of f+1 out of 2f+1 always intersect.
		if 2*tr.Threshold() <= tr.Size() {
			t.Fatalf("f=%d: trusted quorums do not intersect", f)
		}
		// Every quorum holds at least one correct node, which is what
		// lets f+1 matching (counter-attested) replies commit.
		if tr.CorrectMembers() != 1 {
			t.Fatalf("f=%d: correct members %d, want 1", f, tr.CorrectMembers())
		}
	}
}

func TestFastQuorumRecoverability(t *testing.T) {
	// Fast quorum property: any two fast quorums and any classic quorum
	// share at least one acceptor, so collision recovery can identify a
	// possibly-chosen value; and quorums of n−f keep the system live
	// under f crashes.
	for f := 1; f <= 8; f++ {
		q := Fast{F: f}
		if got := q.ThreeWayIntersection(); got < 1 {
			t.Fatalf("f=%d: three-way intersection %d < 1", f, got)
		}
		if q.Threshold() != q.Size()-f {
			t.Fatalf("f=%d: quorum %d not live under %d crashes of %d", f, q.Threshold(), f, q.Size())
		}
	}
}

func TestFlexibleValidity(t *testing.T) {
	cases := []struct {
		f     Flexible
		valid bool
	}{
		{Flexible{N: 5, Q1: 3, Q2: 3}, true},  // plain majority
		{Flexible{N: 5, Q1: 4, Q2: 2}, true},  // FPaxos trade
		{Flexible{N: 5, Q1: 5, Q2: 1}, true},  // extreme trade
		{Flexible{N: 5, Q1: 2, Q2: 3}, false}, // no intersection
		{Flexible{N: 5, Q1: 3, Q2: 2}, false},
		{Flexible{N: 5, Q1: 6, Q2: 1}, false}, // q1 > n
		{Flexible{N: 5, Q1: 0, Q2: 6}, false},
	}
	for _, c := range cases {
		if got := c.f.Valid(); got != c.valid {
			t.Errorf("%+v Valid() = %v, want %v", c.f, got, c.valid)
		}
	}
}

func TestFlexibleIntersectionProperty(t *testing.T) {
	// For every valid config, any Q1-subset and Q2-subset of [0,n) share
	// an element. Verified exhaustively for small n via counting: the
	// worst case is disjoint packing, impossible iff Q1+Q2 > n.
	f := func(n, q1, q2 uint8) bool {
		fx := Flexible{N: int(n)%9 + 1, Q1: int(q1)%10 + 1, Q2: int(q2)%10 + 1}
		wouldIntersect := fx.Q1+fx.Q2 > fx.N
		if fx.Q1 > fx.N || fx.Q2 > fx.N {
			return !fx.Valid()
		}
		return fx.Valid() == wouldIntersect
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHybridArithmetic(t *testing.T) {
	// The UpRight slide: network 3m+2c+1, quorum 2m+c+1, intersection m+1.
	for m := 0; m <= 5; m++ {
		for c := 0; c <= 5; c++ {
			h := Hybrid{M: m, C: c}
			if h.Size() != 3*m+2*c+1 {
				t.Fatalf("m=%d c=%d: size %d", m, c, h.Size())
			}
			if h.Threshold() != 2*m+c+1 {
				t.Fatalf("m=%d c=%d: quorum %d", m, c, h.Threshold())
			}
			if h.Intersection() != m+1 {
				t.Fatalf("m=%d c=%d: intersection %d, want %d", m, c, h.Intersection(), m+1)
			}
			// Liveness: a quorum must exist among non-faulty responders.
			if h.Size()-m-c < h.Threshold() {
				t.Fatalf("m=%d c=%d: not live", m, c)
			}
		}
	}
	// Degenerate cases match the classic systems.
	if (Hybrid{M: 0, C: 2}).Size() != 5 || (Hybrid{M: 0, C: 2}).Threshold() != 3 {
		t.Fatal("hybrid(m=0) should collapse to majority")
	}
	if (Hybrid{M: 2, C: 0}).Size() != 7 || (Hybrid{M: 2, C: 0}).Threshold() != 5 {
		t.Fatal("hybrid(c=0) should collapse to byzantine")
	}
}

func TestTally(t *testing.T) {
	tl := NewTally(3)
	if tl.Add(1) || tl.Add(2) {
		t.Fatal("threshold reached too early")
	}
	if !tl.Add(1) == false && tl.Count() != 2 {
		t.Fatal("duplicate vote counted")
	}
	if tl.Count() != 2 {
		t.Fatalf("count = %d, want 2 (dup ignored)", tl.Count())
	}
	if !tl.Add(3) {
		t.Fatal("threshold not reached at 3 distinct votes")
	}
	if !tl.Reached() || !tl.Has(2) || tl.Has(9) || tl.need != 3 || tl.Count() != 3 {
		t.Fatal("tally accessors wrong")
	}
}

func TestValueTally(t *testing.T) {
	vt := NewValueTally(2)
	vt.Add(1, "x")
	vt.Add(2, "y")
	if vt.Count("x") != 1 || vt.Count("z") != 0 {
		t.Fatal("per-value counts wrong")
	}
	if vt.Add(1, "x") { // duplicate voter for same value
		t.Fatal("duplicate vote reached threshold")
	}
	if !vt.Add(3, "x") {
		t.Fatal("second distinct vote should reach threshold")
	}
	leader, n := vt.Leader()
	if leader != "x" || n != 2 {
		t.Fatalf("leader = %q/%d", leader, n)
	}
	if vt.total != 3 {
		t.Fatalf("total = %d, want 3", vt.total)
	}
}

func TestValueTallyLeaderTieBreak(t *testing.T) {
	vt := NewValueTally(5)
	vt.Add(1, "b")
	vt.Add(2, "a")
	leader, n := vt.Leader()
	if leader != "a" || n != 1 {
		t.Fatalf("tie break: %q/%d, want a/1", leader, n)
	}
	empty := NewValueTally(1)
	if l, n := empty.Leader(); l != "" || n != 0 {
		t.Fatalf("empty leader = %q/%d", l, n)
	}
}

// Size makes Flexible a System; no program asks a Flexible its size.
func (f Flexible) Size() int { return f.N }

// System answers "how many matching votes decide?" for one vote class.
type System interface {
	// Size returns the cluster size the system is configured for.
	Size() int
	// Threshold returns the number of votes that forms a quorum.
	Threshold() int
	// Describe names the system for tables and traces.
	Describe() string
}

func TestDescribeStrings(t *testing.T) {
	for _, s := range []System{
		Majority{N: 5}, Byzantine{F: 1}, Fast{F: 1},
		Flexible{N: 5, Q1: 4, Q2: 2}, Hybrid{M: 1, C: 1},
	} {
		if s.Describe() == "" {
			t.Fatalf("%T has empty description", s)
		}
		if s.Threshold() <= 0 || s.Threshold() > s.Size() {
			t.Fatalf("%s: threshold %d outside (0,%d]", s.Describe(), s.Threshold(), s.Size())
		}
	}
}

var _ = []types.NodeID{0} // keep import if test edits drop usages

func (m Majority) Describe() string { return fmt.Sprintf("majority(%d/%d)", m.Threshold(), m.N) }

func (b Byzantine) Describe() string {
	return fmt.Sprintf("byzantine(%d/%d,f=%d)", b.Threshold(), b.Size(), b.F)
}

func (q Fast) Describe() string {
	return fmt.Sprintf("fast(%d/%d,f=%d)", q.Threshold(), q.Size(), q.F)
}

func (t Trusted) Describe() string {
	return fmt.Sprintf("trusted(%d/%d,f=%d)", t.Threshold(), t.Size(), t.F)
}

func (h Hybrid) Describe() string {
	return fmt.Sprintf("hybrid(%d/%d,m=%d,c=%d)", h.Threshold(), h.Size(), h.M, h.C)
}

// Faults returns the number of crash faults the system tolerates.
func (m Majority) Faults() int { return (m.N - 1) / 2 }

// CorrectIntersection returns the guaranteed number of correct nodes in
// the intersection of any two quorums: 2·(2f+1) − (3f+1) − f = f+1 … − f = 1.
func (b Byzantine) CorrectIntersection() int {
	return 2*b.Threshold() - b.Size() - b.F
}

// ThreeWayIntersection returns the guaranteed overlap of two fast quorums
// with one classic quorum.
func (q Fast) ThreeWayIntersection() int { return 3*q.Threshold() - 2*q.Size() }

func (f Flexible) Threshold() int { return f.Q2 }

// CorrectMembers returns the guaranteed number of correct nodes in any
// quorum: (f+1) − f = 1, the non-equivocation argument's witness.
func (t Trusted) CorrectMembers() int { return t.Threshold() - t.F }

// Count returns the distinct-vote count for key.
func (v *ValueTally) Count(key string) int {
	if t, ok := v.votes[key]; ok {
		return t.Count()
	}
	return 0
}
