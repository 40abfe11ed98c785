package snapshot

import (
	"bytes"
	"testing"

	"fortyconsensus/internal/types"
)

// Fuzz targets for the two decoders that take outside bytes: no panic,
// and whatever decodes without error re-encodes to exactly the input.

func FuzzDecode(f *testing.F) {
	f.Add(Encode(Snapshot{}))
	f.Add(Encode(Snapshot{LastIndex: 99, LastTerm: 3, Members: []types.NodeID{0, 1, 2, 5}, State: []byte("the quick brown fox")}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := Decode(b); err == nil && !bytes.Equal(Encode(s), b) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x", b, s, Encode(s))
		}
	})
}

func FuzzDecodeConfChange(f *testing.F) {
	f.Add([]byte(EncodeConfChange(ConfChange{Op: ConfAdd, Node: 3})))
	f.Add([]byte(EncodeConfChange(ConfChange{Op: ConfRemove, Node: 1 << 20})))
	f.Fuzz(func(t *testing.T, b []byte) {
		if c, err := DecodeConfChange(b); err == nil && !bytes.Equal(EncodeConfChange(c), b) {
			t.Fatalf("%x decoded to %v, which re-encodes to %x", b, c, EncodeConfChange(c))
		}
	})
}
