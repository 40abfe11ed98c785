package live

import (
	"encoding/binary"
	"errors"
)

// Codec serializes one protocol message type for the wire. Codecs are
// stateless: every frame encodes and decodes independently, so peers
// can drop and re-establish connections without resynchronizing any
// stream state.
type Codec[M any] interface {
	// Append serializes m onto dst and returns the extended slice.
	Append(dst []byte, m M) []byte
	// Decode parses one serialized message. It must never panic on
	// malformed input — torn frames and version skew surface as errors.
	// Decoders read with wire.Reader and take byte strings with Copy32:
	// the frame buffer is transport-owned, while decoded values flow
	// into protocol logs under the types.Value immutability discipline.
	Decode(b []byte) (M, error)
}

// ErrCodec reports a malformed or truncated message encoding.
var ErrCodec = errors.New("live: malformed message encoding")

// --- append helpers (big-endian, fixed width) ---

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(b, uint64(v)) }
