package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// Config-change log entries. A membership change is an ordinary
// replicated value carrying a reserved 8-byte magic prefix; protocols
// detect it at append/learn time and adjust their member set, while the
// smr layer recognizes it and skips the state machine. The prefix's
// high byte (0xC0) cannot collide with encoded client requests, whose
// first 8 bytes are a small dense client ID.

// ConfOp is the kind of membership change.
type ConfOp uint8

const (
	// ConfAdd adds one node to the configuration.
	ConfAdd ConfOp = iota + 1
	// ConfRemove removes one node from the configuration.
	ConfRemove
)

func (o ConfOp) String() string {
	switch o {
	case ConfAdd:
		return "add"
	case ConfRemove:
		return "remove"
	}
	return fmt.Sprintf("ConfOp(%d)", uint8(o))
}

// ConfChange is a single-server membership change.
type ConfChange struct {
	Op   ConfOp
	Node types.NodeID
}

func (c ConfChange) String() string {
	return fmt.Sprintf("conf-%s(%v)", c.Op, c.Node)
}

var confMagic = [8]byte{0xC0, 0x4F, 'C', 'O', 'N', 'F', 0x01, 0x5A}

// ErrConfChange reports a value with the config-change prefix but a
// malformed body.
var ErrConfChange = errors.New("snapshot: malformed config-change value")

// EncodeConfChange packs a membership change into a log value:
// magic(8) | u8 op | u64 node.
func EncodeConfChange(c ConfChange) types.Value {
	buf := make([]byte, 0, 8+1+8)
	buf = append(buf, confMagic[:]...)
	buf = append(buf, byte(c.Op))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(c.Node)))
	return types.Value(buf)
}

// IsConfChange reports whether v carries the config-change prefix.
func IsConfChange(v types.Value) bool {
	return len(v) >= len(confMagic) && [len(confMagic)]byte(v) == confMagic
}

// DecodeConfChange parses a config-change value. Call IsConfChange
// first; a prefixed but malformed body is an explicit error.
func DecodeConfChange(v types.Value) (ConfChange, error) {
	if !IsConfChange(v) {
		return ConfChange{}, ErrConfChange
	}
	r := wire.NewReader(v[len(confMagic):])
	c := ConfChange{Op: ConfOp(r.U8()), Node: types.NodeID(r.I64())}
	if !r.Done() {
		return ConfChange{}, ErrConfChange
	}
	if c.Op != ConfAdd && c.Op != ConfRemove {
		return ConfChange{}, fmt.Errorf("%w: op %d", ErrConfChange, c.Op)
	}
	return c, nil
}

// Apply returns the member set after applying c to ms: Add appends (a
// no-op if already present), Remove deletes (a no-op if absent). The
// result is always a fresh sorted slice; ms is never mutated.
func (c ConfChange) Apply(ms []types.NodeID) []types.NodeID {
	out := make([]types.NodeID, 0, len(ms)+1)
	seen := false
	for _, m := range ms {
		if m == c.Node {
			seen = true
			if c.Op == ConfRemove {
				continue
			}
		}
		out = append(out, m)
	}
	if c.Op == ConfAdd && !seen {
		out = append(out, c.Node)
		// Insertion sort the tail in: member sets stay sorted so every
		// replica iterates them in the same order.
		for i := len(out) - 1; i > 0 && out[i] < out[i-1]; i-- {
			out[i], out[i-1] = out[i-1], out[i]
		}
	}
	return out
}
