package trustedhw

import (
	"testing"
	"testing/quick"
)

var secret = []byte("attestation-secret")

func TestUSIGMonotonic(t *testing.T) {
	u := NewUSIG(0, secret)
	var last uint64
	for i := 0; i < 100; i++ {
		c := u.CreateUI([]byte("msg"))
		if c.Counter != last+1 {
			t.Fatalf("counter skipped: %d after %d", c.Counter, last)
		}
		last = c.Counter
	}
	if u.counter != 100 {
		t.Fatalf("Counter() = %d", u.counter)
	}
}

func TestUSIGUniqueIdentifiers(t *testing.T) {
	// The defining property: the same counter value is never bound to
	// two different digests, because each CreateUI consumes a counter.
	u := NewUSIG(1, secret)
	c1 := u.CreateUI([]byte("a"))
	c2 := u.CreateUI([]byte("b"))
	if c1.Counter == c2.Counter {
		t.Fatal("two messages share a counter")
	}
}

func TestUSIGVerify(t *testing.T) {
	u0, u1 := NewUSIG(0, secret), NewUSIG(1, secret)
	cert := u0.CreateUI([]byte("prepare"))
	if err := u1.VerifyUI(cert, []byte("prepare")); err != nil {
		t.Fatal(err)
	}
	if err := u1.VerifyUI(cert, []byte("other")); err == nil {
		t.Fatal("certificate verified for wrong message")
	}
	forged := cert
	forged.Counter++
	if err := u1.VerifyUI(forged, []byte("prepare")); err == nil {
		t.Fatal("counter-reassigned certificate verified")
	}
	forged = cert
	forged.Node = 2
	if err := u1.VerifyUI(forged, []byte("prepare")); err == nil {
		t.Fatal("node-reassigned certificate verified")
	}
	// Different cluster secret cannot mint valid certs.
	evil := NewUSIG(0, []byte("stolen"))
	if err := u1.VerifyUI(evil.CreateUI([]byte("prepare")), []byte("prepare")); err == nil {
		t.Fatal("certificate from foreign secret verified")
	}
}

func TestMonitorOrdering(t *testing.T) {
	u := NewUSIG(3, secret)
	m := NewMonitor()
	c1 := u.CreateUI([]byte("m1"))
	c2 := u.CreateUI([]byte("m2"))
	c3 := u.CreateUI([]byte("m3"))
	if m.Expected(3) != 1 {
		t.Fatal("fresh monitor should expect 1")
	}
	if m.Accept(c2) {
		t.Fatal("gap accepted")
	}
	if !m.Accept(c1) || !m.Accept(c2) || !m.Accept(c3) {
		t.Fatal("in-order certificates rejected")
	}
	if m.Accept(c2) {
		t.Fatal("replayed certificate accepted")
	}
	if m.Expected(3) != 4 {
		t.Fatalf("expected counter = %d, want 4", m.Expected(3))
	}
}

func TestMonitorPerPeerIndependence(t *testing.T) {
	ua, ub := NewUSIG(0, secret), NewUSIG(1, secret)
	m := NewMonitor()
	if !m.Accept(ua.CreateUI([]byte("x"))) {
		t.Fatal("peer 0 #1 rejected")
	}
	if !m.Accept(ub.CreateUI([]byte("y"))) {
		t.Fatal("peer 1 #1 rejected despite independent stream")
	}
}

func TestCASHEpochIsolation(t *testing.T) {
	c0, c1 := NewCASH(0, secret), NewCASH(1, secret)
	d := []byte("request")
	cert := c0.CreateCert(d)
	if err := c1.VerifyCert(cert, 0, d); err != nil {
		t.Fatal(err)
	}
	// A certificate minted in epoch 0 must not verify as epoch 1: that is
	// exactly the replay CheapSwitch guards against.
	if err := c1.VerifyCert(cert, 1, d); err == nil {
		t.Fatal("cross-epoch replay verified")
	}
	c0.AdvanceEpoch()
	if c0.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c0.Epoch())
	}
	cert2 := c0.CreateCert(d)
	if err := c1.VerifyCert(cert2, 1, d); err != nil {
		t.Fatal(err)
	}
	if err := c1.VerifyCert(cert2, 0, d); err == nil {
		t.Fatal("new-epoch cert verified under old epoch")
	}
}

func TestCASHCountersKeepRisingAcrossEpochs(t *testing.T) {
	c := NewCASH(0, secret)
	a := c.CreateCert([]byte("x"))
	c.AdvanceEpoch()
	b := c.CreateCert([]byte("y"))
	if b.Counter <= a.Counter {
		t.Fatalf("counter regressed across epochs: %d then %d", a.Counter, b.Counter)
	}
}

func TestUSIGCounterNeverRepeatsProperty(t *testing.T) {
	f := func(msgs [][]byte) bool {
		u := NewUSIG(0, secret)
		seen := map[uint64]bool{}
		for _, m := range msgs {
			c := u.CreateUI(m)
			if seen[c.Counter] {
				return false
			}
			seen[c.Counter] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
