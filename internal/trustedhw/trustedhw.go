// Package trustedhw simulates the tamper-proof components that MinBFT and
// CheapBFT rely on to cut byzantine replication from 3f+1 to 2f+1 (or
// f+1 active) replicas.
//
// The paper's systems use real trusted hardware (TPM-backed counters,
// FPGA CASH subsystems). The protocols, however, only require two
// properties from the component: (1) it emits certificates binding each
// message to a strictly monotonically increasing counter value, and
// (2) a byzantine host cannot forge certificates or reuse counter
// values — it can at worst crash its component or withhold output.
// A software implementation holding an HMAC key that protocol code never
// touches provides exactly those properties inside the simulation: the
// byzantine fault injector mutates protocol messages but has no access
// to other nodes' USIG keys, so equivocation with valid certificates is
// impossible, which is the behaviour the 2f+1 bound depends on.
package trustedhw

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"fortyconsensus/internal/types"
)

// Certificate binds a message digest to (node, counter).
type Certificate struct {
	Node    types.NodeID
	Counter uint64
	MAC     []byte
}

// ErrBadCertificate reports a certificate that fails verification.
var ErrBadCertificate = errors.New("trustedhw: invalid certificate")

// USIG is MinBFT's Unique Sequential Identifier Generator: every call to
// CreateUI consumes the next counter value, so a host cannot assign the
// same identifier to two different messages even if it is byzantine.
type USIG struct {
	node    types.NodeID
	key     []byte
	counter uint64
}

// NewUSIG creates node's USIG. All USIGs in a cluster share a
// verification secret (standing in for an attestation PKI): any node can
// verify any other node's certificates, none can mint them for a peer
// because CreateUI only signs with the local identity and local counter.
func NewUSIG(node types.NodeID, clusterSecret []byte) *USIG {
	k := make([]byte, len(clusterSecret))
	copy(k, clusterSecret)
	return &USIG{node: node, key: k}
}

func usigMAC(key []byte, node types.NodeID, counter uint64, digest []byte) []byte {
	mac := hmac.New(sha256.New, key)
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(node))
	binary.BigEndian.PutUint64(b[8:], counter)
	mac.Write(b[:])
	mac.Write(digest)
	return mac.Sum(nil)
}

// CreateUI assigns the next unique identifier to digest. Counters start
// at 1 and never repeat or skip.
func (u *USIG) CreateUI(digest []byte) Certificate {
	u.counter++
	return Certificate{
		Node:    u.node,
		Counter: u.counter,
		MAC:     usigMAC(u.key, u.node, u.counter, digest),
	}
}

// VerifyUI checks that cert is a valid identifier for digest.
func (u *USIG) VerifyUI(cert Certificate, digest []byte) error {
	want := usigMAC(u.key, cert.Node, cert.Counter, digest)
	if !hmac.Equal(cert.MAC, want) {
		return fmt.Errorf("%w: MAC mismatch for %v#%d", ErrBadCertificate, cert.Node, cert.Counter)
	}
	return nil
}

// Monitor tracks the counter stream received from one peer and enforces
// MinBFT's reception rule: identifiers must arrive gap-free and in order,
// otherwise the receiver holds the message. It returns whether the
// certificate is the next expected one.
type Monitor struct {
	last map[types.NodeID]uint64
}

// NewMonitor returns an empty per-peer counter tracker.
func NewMonitor() *Monitor { return &Monitor{last: make(map[types.NodeID]uint64)} }

// Accept reports whether cert carries the next expected counter for its
// node, advancing the tracker if so.
func (m *Monitor) Accept(cert Certificate) bool {
	if cert.Counter != m.last[cert.Node]+1 {
		return false
	}
	m.last[cert.Node] = cert.Counter
	return true
}

// Expected returns the next counter value expected from node.
func (m *Monitor) Expected(node types.NodeID) uint64 { return m.last[node] + 1 }

// CASH is CheapBFT's trusted subsystem. It is a USIG plus an epoch
// ("protocol instance") tag: CheapSwitch rolls the epoch so certificates
// from an aborted CheapTiny instance cannot be replayed into MinBFT.
type CASH struct {
	usig  *USIG
	epoch uint64
}

// NewCASH creates node's CASH subsystem.
func NewCASH(node types.NodeID, clusterSecret []byte) *CASH {
	return &CASH{usig: NewUSIG(node, clusterSecret)}
}

// Epoch returns the current protocol-instance number.
func (c *CASH) Epoch() uint64 { return c.epoch }

// AdvanceEpoch moves to the next protocol instance (CheapSwitch).
func (c *CASH) AdvanceEpoch() { c.epoch++ }

// CreateCert certifies digest under the current epoch.
func (c *CASH) CreateCert(digest []byte) Certificate {
	return c.usig.CreateUI(append(epochTag(c.epoch), digest...))
}

// VerifyCert checks a certificate issued under epoch for digest.
func (c *CASH) VerifyCert(cert Certificate, epoch uint64, digest []byte) error {
	return c.usig.VerifyUI(cert, append(epochTag(epoch), digest...))
}

func epochTag(e uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], e)
	return b[:]
}
