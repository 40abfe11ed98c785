package types

import (
	"testing"
	"testing/quick"
)

func TestBallotOrdering(t *testing.T) {
	cases := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{1, 0}, Ballot{2, 0}, true},
		{Ballot{2, 0}, Ballot{1, 0}, false},
		{Ballot{1, 0}, Ballot{1, 1}, true},
		{Ballot{1, 1}, Ballot{1, 0}, false},
		{Ballot{1, 1}, Ballot{1, 1}, false},
		{ZeroBallot, Ballot{0, 1}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("(%v).Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestBallotLessEqConsistency(t *testing.T) {
	f := func(n1, n2 uint64, p1, p2 int8) bool {
		a := Ballot{Num: n1, Owner: NodeID(p1)}
		b := Ballot{Num: n2, Owner: NodeID(p2)}
		// Exactly one of a<b, b<a, a==b holds.
		trich := 0
		if a.Less(b) {
			trich++
		}
		if b.Less(a) {
			trich++
		}
		if a == b {
			trich++
		}
		return trich == 1 && a.LessEq(b) == (a.Less(b) || a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBallotNext(t *testing.T) {
	b := Ballot{Num: 7, Owner: 2}
	n := b.Next(5)
	if !b.Less(n) {
		t.Fatalf("Next ballot %v not greater than %v", n, b)
	}
	if n.Owner != 5 || n.Num != 8 {
		t.Fatalf("Next = %v, want 8.5", n)
	}
	if !ZeroBallot.IsZero() || b.IsZero() {
		t.Fatal("IsZero misclassifies")
	}
}

func TestValueEqualClone(t *testing.T) {
	v := Value("hello")
	if !v.Equal(v.Clone()) {
		t.Fatal("clone not equal")
	}
	c := v.Clone()
	c[0] = 'H'
	if v.Equal(c) {
		t.Fatal("clone shares backing array")
	}
	if !Value(nil).Equal(Value{}) {
		t.Fatal("nil and empty should be equal")
	}
	if Value("a").Equal(Value("b")) {
		t.Fatal("distinct values compare equal")
	}
	if Value(nil).Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

func TestValueString(t *testing.T) {
	long := Value("0123456789012345678901234567890123456789")
	if got := long.String(); len(got) != 27 {
		t.Fatalf("truncated string length = %d (%q)", len(got), got)
	}
	if got := Value("hi").String(); got != "hi" {
		t.Fatalf("short string = %q", got)
	}
}

func TestViewPrimary(t *testing.T) {
	if View(0).Primary(4) != 0 || View(5).Primary(4) != 1 || View(7).Primary(4) != 3 {
		t.Fatal("primary rotation wrong")
	}
}

func TestIDStrings(t *testing.T) {
	if NodeID(3).String() != "n3" || ClientID(4).String() != "c4" {
		t.Fatal("ID rendering wrong")
	}
	if (Ballot{Num: 3, Owner: 1}).String() != "3.1" {
		t.Fatal("ballot rendering wrong")
	}
}
