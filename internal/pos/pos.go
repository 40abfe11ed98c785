// Package pos implements Proof-of-Stake consensus as the paper presents
// it: "a stakeholder who has p fraction of the coins in circulation
// creates a new block with p probability", plus the two anti-plutocracy
// refinements the slides list —
//
//	randomized block selection: a seeded pseudo-random beacon combined
//	with stake size picks each slot's proposer;
//
//	coin-age-based selection: weight = stake × age (slots since the
//	stake last won), with age capped (the slides' "maximum after 90
//	days") and reset to zero on winning, so dormant smaller holders
//	catch up.
//
// Experiment F8 measures block share versus stake share under both
// rules — the "don't the rich get richer?" slide, answered with data.
//
// The protocol is slot-synchronous: every slot, each validator evaluates
// the public selection function; the winner signs and broadcasts a
// block; everyone can verify the winner was legitimate because the
// selection depends only on the shared stake table, the beacon seed,
// and the slot number. The gossip layer that shows it — validators
// that propose, broadcast and replay each other's blocks — lives in the
// package's tests; the experiments drive the Ledger alone.
package pos

import (
	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/core"
	"fortyconsensus/internal/det"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

func init() {
	core.Register(core.Profile{
		Name:         "pos",
		Failure:      core.Byzantine,
		Strategy:     core.Optimistic,
		NodesFor:     func(f int) int { return quorum.MajorityFor(f).Size() }, // honest-majority of stake
		NodesFormula: "majority of stake",
		QuorumFor:    func(f int) int { return f + 1 },
		CommitPhases: 1,
		Complexity:   core.Linear,
		Decomposition: []core.Phase{
			core.LeaderElection, core.Decision,
		},
		Notes: "stake-weighted randomized or coin-age proposer selection",
	})
}

// Selection picks how proposers are chosen.
type Selection uint8

const (
	// Randomized weights proposers purely by stake.
	Randomized Selection = iota
	// CoinAge weights by stake × capped age, resetting age on a win.
	CoinAge
)

func (s Selection) String() string {
	if s == CoinAge {
		return "coin-age"
	}
	return "randomized"
}

// Params configures a PoS network.
type Params struct {
	Selection Selection
	// Seed seeds the public beacon.
	Seed uint64
	// Reward is the per-block stake reward; zero is a valid choice and
	// isolates the selection rule from compounding.
	Reward uint64
}

// maxAge caps coin-age weighting (the "90 days" rule).
const maxAge = 90

// minAge is the dormancy before stake competes ("unspent for at least
// 30 days"): 3 slots under coin-age, none under randomized selection.
func (p Params) minAge() uint64 {
	if p.Selection == CoinAge {
		return 3
	}
	return 0
}

// Validator is one stakeholder in the shared stake table.
type Validator struct {
	ID    types.NodeID
	Stake uint64
	// age counts slots since this validator last proposed.
	age uint64
}

// Block is one PoS block.
type Block struct {
	Slot     uint64
	Proposer types.NodeID
	Parent   chaincrypto.Digest
	Payload  []types.Value
}

// Hash returns the block digest.
func (b Block) Hash() chaincrypto.Digest {
	parts := [][]byte{
		chaincrypto.HashUint64(b.Slot),
		chaincrypto.HashUint64(uint64(b.Proposer)),
		b.Parent[:],
	}
	for _, v := range b.Payload {
		parts = append(parts, v)
	}
	return chaincrypto.Hash(parts...)
}

// Ledger is the deterministic slot-by-slot PoS state machine: the stake
// table, the beacon, and the chain. Every validator computes the same
// ledger, so a networked layer needs only block dissemination — the
// selection itself requires no votes.
type Ledger struct {
	params Params
	vals   []*Validator
	byID   map[types.NodeID]*Validator
	chain  []Block
	tipID  chaincrypto.Digest
	wins   map[types.NodeID]int
}

// NewLedger builds a ledger over the given initial stakes.
func NewLedger(params Params, stakes map[types.NodeID]uint64) *Ledger {
	l := &Ledger{
		params: params,
		byID:   make(map[types.NodeID]*Validator, len(stakes)),
		wins:   make(map[types.NodeID]int),
	}
	for _, id := range det.SortedKeys(stakes) {
		v := &Validator{ID: id, Stake: stakes[id], age: params.minAge()}
		l.vals = append(l.vals, v)
		l.byID[id] = v
	}
	return l
}

// weight returns a validator's current selection weight.
func (l *Ledger) weight(v *Validator) uint64 {
	switch l.params.Selection {
	case CoinAge:
		age := v.age
		if age < l.params.minAge() {
			return 0
		}
		if age > maxAge {
			age = maxAge
		}
		return v.Stake * age
	case Randomized:
		return v.Stake
	}
	return v.Stake
}

// beacon derives slot randomness from the seed and slot number.
func (l *Ledger) beacon(slot uint64) uint64 {
	d := chaincrypto.Hash(chaincrypto.HashUint64(l.params.Seed), chaincrypto.HashUint64(slot))
	var out uint64
	for i := 0; i < 8; i++ {
		out = out<<8 | uint64(d[i])
	}
	return out
}

// ProposerFor returns the slot's legitimate proposer: sample the beacon
// against cumulative weights. With zero total weight (all dormant), the
// slot is empty and no block may be produced.
func (l *Ledger) ProposerFor(slot uint64) (types.NodeID, bool) {
	total := uint64(0)
	for _, v := range l.vals {
		total += l.weight(v)
	}
	if total == 0 {
		return 0, false
	}
	pick := l.beacon(slot) % total
	acc := uint64(0)
	for _, v := range l.vals {
		acc += l.weight(v)
		if pick < acc {
			return v.ID, true
		}
	}
	return l.vals[len(l.vals)-1].ID, true
}

// Advance plays one slot: selects the proposer, appends its block, pays
// the reward, and updates ages. payload may be nil.
func (l *Ledger) Advance(payload []types.Value) (Block, bool) {
	slot := uint64(len(l.chain)) + 1
	id, ok := l.ProposerFor(slot)
	// Ages advance for everyone each slot.
	for _, v := range l.vals {
		v.age++
	}
	if !ok {
		return Block{}, false
	}
	// The caller keeps ownership of payload; the block must not retain
	// its backing array.
	b := Block{Slot: slot, Proposer: id, Parent: l.tipID, Payload: append([]types.Value(nil), payload...)}
	l.apply(b)
	return b, true
}

func (l *Ledger) apply(b Block) {
	l.chain = append(l.chain, b)
	l.tipID = b.Hash()
	v := l.byID[b.Proposer]
	v.Stake += l.params.Reward
	v.age = 0
	l.wins[b.Proposer]++
}

// Wins returns per-validator block counts.
func (l *Ledger) Wins() map[types.NodeID]int {
	out := make(map[types.NodeID]int, len(l.wins))
	for k, v := range l.wins {
		out[k] = v
	}
	return out
}
