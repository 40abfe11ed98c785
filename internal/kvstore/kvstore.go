// Package kvstore is the deterministic replicated application every
// protocol drives in this repository's experiments: a key-value store
// with GET/PUT/DELETE/CAS/INCR operations, a compact binary command
// codec, and snapshot support.
//
// State machine determinism — the same command sequence yields the same
// state and replies on every replica — is the property state machine
// replication depends on (the paper's "commands are deterministic"
// slide), and the tests here verify it directly.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wire"
)

// Op codes for the command codec.
const (
	OpGet uint8 = iota + 1
	OpPut
	OpDelete
	OpCAS
	OpIncr
	OpNoop
)

// Command is one state-machine operation.
type Command struct {
	Op       uint8
	Key      string
	Value    []byte
	Expected []byte // CAS only
}

// ErrDecode reports a malformed encoded command.
var ErrDecode = errors.New("kvstore: malformed command")

// MaxKeyLen is the longest key the command codec can carry: the key's
// length prefix is a u16. Encode does not check it; whoever accepts keys
// from outside (live.Client) does.
const MaxKeyLen = math.MaxUint16

// Encode serializes the command:
// u8 op | u16 keyLen | key | u32 valLen | val | u32 expLen | exp.
func (c Command) Encode() types.Value {
	buf := make([]byte, 0, 1+2+len(c.Key)+4+len(c.Value)+4+len(c.Expected))
	buf = append(buf, c.Op)
	buf = wire.AppendBytes16(buf, c.Key)
	buf = wire.AppendBytes32(buf, c.Value)
	buf = wire.AppendBytes32(buf, c.Expected)
	return types.Value(buf)
}

// Decode parses a serialized command. Value and Expected are copies:
// the command outlives v.
func Decode(v types.Value) (Command, error) {
	op, key, val, exp, ok := View(v)
	if !ok {
		return Command{}, ErrDecode
	}
	return Command{Op: op, Key: string(key), Value: owned(val), Expected: owned(exp)}, nil
}

// View parses a serialized command in place: key, val and exp are views
// of v, valid for as long as v is, and ok is false on a malformed
// command. It is Decode for a caller that only reads the command.
func View(v types.Value) (op uint8, key, val, exp []byte, ok bool) {
	r := wire.NewReader(v)
	op, key, val, exp = r.U8(), r.View16(), r.View32(), r.View32()
	if !r.Done() {
		return 0, nil, nil, nil, false
	}
	return op, key, val, exp, true
}

// owned copies b, or is nil when b is empty.
func owned(b []byte) []byte { return append([]byte(nil), b...) }

// Convenience constructors.

// Get builds a GET command.
func Get(key string) Command { return Command{Op: OpGet, Key: key} }

// Put builds a PUT command.
func Put(key string, val []byte) Command { return Command{Op: OpPut, Key: key, Value: val} }

// Delete builds a DELETE command.
func Delete(key string) Command { return Command{Op: OpDelete, Key: key} }

// CAS builds a compare-and-swap command: set key to val iff its current
// value equals expected.
func CAS(key string, expected, val []byte) Command {
	return Command{Op: OpCAS, Key: key, Value: val, Expected: expected}
}

// Incr builds an increment command: interpret the value at key as a
// decimal integer and add delta.
func Incr(key string, delta int64) Command {
	return Command{Op: OpIncr, Key: key, Value: []byte(strconv.FormatInt(delta, 10))}
}

// Reply payloads.
var (
	ReplyOK       = types.Value("OK")
	ReplyNotFound = types.Value("NOT_FOUND")
	ReplyCASFail  = types.Value("CAS_FAIL")
	ReplyBadCmd   = types.Value("BAD_COMMAND")
)

// Store is the state machine. It is not safe for concurrent use; the SMR
// layer applies commands from a single goroutine in commit order.
//
// No stored value is ever written in place: a write replaces the key's
// slice. So a reply shares the stored bytes (a Get returns them, an Incr
// stores the bytes it replies), and so may whoever holds a reply.
type Store struct {
	data    map[string]stored
	applied uint64 // number of commands applied, for audit
}

// stored is one value beside the map's own string of its key, so that a
// write to a key already present converts no key bytes.
type stored struct {
	key string
	val []byte
}

// New returns an empty store.
func New() *Store { return &Store{data: make(map[string]stored)} }

// set stores val under key.
func (s *Store) set(key, val []byte) {
	e, ok := s.data[string(key)]
	if !ok {
		e.key = string(key)
	}
	e.val = val
	s.data[e.key] = e
}

// Apply executes one encoded command and returns its reply. Unknown or
// malformed commands yield ReplyBadCmd deterministically rather than an
// error: every replica must produce the same result for every input.
func (s *Store) Apply(cmd types.Value) types.Value {
	s.applied++
	op, key, val, exp, ok := View(cmd)
	if !ok {
		return ReplyBadCmd
	}
	switch op {
	case OpGet:
		return s.get(key)
	case OpPut:
		s.set(key, owned(val))
		return ReplyOK
	case OpDelete:
		if _, ok := s.data[string(key)]; !ok {
			return ReplyNotFound
		}
		delete(s.data, string(key))
		return ReplyOK
	case OpCAS:
		cur, ok := s.data[string(key)]
		if !ok && len(exp) != 0 {
			return ReplyCASFail
		}
		if ok && string(cur.val) != string(exp) {
			return ReplyCASFail
		}
		s.set(key, owned(val))
		return ReplyOK
	case OpIncr:
		delta, err := strconv.ParseInt(string(val), 10, 64)
		if err != nil {
			return ReplyBadCmd
		}
		cur := int64(0)
		if v, ok := s.data[string(key)]; ok {
			cur, err = strconv.ParseInt(string(v.val), 10, 64)
			if err != nil {
				return ReplyBadCmd
			}
		}
		out := strconv.AppendInt(nil, cur+delta, 10)
		s.set(key, out)
		return out
	case OpNoop:
		return ReplyOK
	default:
		return ReplyBadCmd
	}
}

// get answers a GET with the stored bytes themselves.
func (s *Store) get(key []byte) types.Value {
	if v, ok := s.data[string(key)]; ok {
		return v.val
	}
	return ReplyNotFound
}

// Query answers a GET without applying it: nothing changes, not even the
// applied count a snapshot carries. Anything else is ReplyBadCmd.
func (s *Store) Query(cmd types.Value) types.Value {
	op, key, _, _, ok := View(cmd)
	if !ok || op != OpGet {
		return ReplyBadCmd
	}
	return s.get(key)
}

// Get reads a key directly (local, possibly stale read).
func (s *Store) Get(key string) ([]byte, bool) {
	v, ok := s.data[key]
	return v.val, ok
}

// Snapshot serializes the full store deterministically (sorted keys):
// u64 applied | u32 nKeys | nKeys × (u16 keyLen | key | u32 valLen | val).
func (s *Store) Snapshot() []byte {
	keys := det.SortedKeys(s.data)
	var buf []byte
	buf = binary.BigEndian.AppendUint64(buf, s.applied)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = wire.AppendBytes16(buf, k)
		buf = wire.AppendBytes32(buf, s.data[k].val)
	}
	return buf
}

// Restore replaces the store's contents from a snapshot. Keys must
// ascend strictly, as Snapshot writes them, so one state has one
// encoding. Malformed input is an error and leaves the store untouched.
func (s *Store) Restore(snap []byte) error {
	r := wire.NewReader(snap)
	applied := r.U64()
	n := r.Count(2 + 4)
	data := make(map[string]stored, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := string(r.View16())
		if i > 0 && k <= prev {
			return fmt.Errorf("kvstore: snapshot truncated or out of order at key %d", i)
		}
		data[k], prev = stored{k, r.Copy32()}, k
	}
	if !r.Done() {
		return fmt.Errorf("kvstore: snapshot truncated or has trailing bytes")
	}
	s.data, s.applied = data, applied
	return nil
}
