package kvstore

import (
	"bytes"
	"testing"
)

// Fuzz targets for the two decoders that take outside bytes: no panic,
// and whatever decodes without error re-encodes to exactly the input.

func FuzzDecode(f *testing.F) {
	for _, c := range []Command{Get("k"), Put("key", []byte("value")), Delete(""), CAS("k", []byte("old"), []byte("new")), Incr("n", -3), Command{Op: OpNoop}} {
		f.Add([]byte(c.Encode()))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Decode(b)
		if err == nil && !bytes.Equal(c.Encode(), b) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x", b, c, c.Encode())
		}
		op, key, val, exp, ok := View(b)
		if ok != (err == nil) || op != c.Op || string(key) != c.Key || !bytes.Equal(val, c.Value) || !bytes.Equal(exp, c.Expected) {
			t.Fatalf("%x viewed as (%d %q %x %x %v), decoded as %+v (%v)", b, op, key, val, exp, ok, c, err)
		}
	})
}

func FuzzRestore(f *testing.F) {
	s := New()
	f.Add(s.Snapshot())
	s.Apply(Put("a", []byte("1")).Encode())
	s.Apply(Put("b", nil).Encode())
	s.Apply(Incr("n", 9).Encode())
	f.Add(s.Snapshot())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := New()
		if err := r.Restore(b); err == nil && !bytes.Equal(r.Snapshot(), b) {
			t.Fatalf("%x restored, but snapshots as %x", b, r.Snapshot())
		}
	})
}
