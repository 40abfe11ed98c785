// Package replog is the one log replication both consensus backends run
// — Raft's, which Multi-Paxos shares (Howard & Mortier, "Paxos vs Raft"):
// one core, two electors. Core is raft's replication half, moved: the
// paged log (Log), follower progress, phase 2 to a quorum, the per-tick
// pass and heartbeat rewind, commit, compaction, the snapshot transfer
// and reads, with the outbox and decision stream a host drains. It asks
// its Elector — raft's vote rule, or Paxos' phase 1 and Value Discovery
// — only for a term, the member set and Q2 of an index, and hooks; and
// Persister maps its state onto the journal.
package replog

import "fortyconsensus/internal/types"

const (
	// PageSlots is how many entries one page of a Log holds.
	PageSlots = 256
	// MaxAhead is how far past the end of its log one write may make a
	// node grow it. An index is a wire integer and must not size memory.
	MaxAhead = 1 << 20
)

type page[E any] [PageSlots]E

// Log is a log of E: fixed-size pages of entries, added as an entry in
// them is first written and dropped whole by compaction, so that no step
// costs or allocates in proportion to the log's length. pages[0][0] is
// index origin, a multiple of PageSlots; a hole is a nil page. An entry
// never written reads as E's zero value.
type Log[E any] struct {
	pages  []*page[E]
	origin types.Seq
}

// Get returns entry s, or nil where the log has no page for it.
func (l *Log[E]) Get(s types.Seq) *E {
	if s < l.origin {
		return nil
	}
	i := (s - l.origin) / PageSlots
	if i >= types.Seq(len(l.pages)) || l.pages[i] == nil {
		return nil
	}
	return &l.pages[i][(s-l.origin)%PageSlots]
}

// At returns entry s for writing, adding its page if need be: nil below
// origin, and nil MaxAhead or more past the last page.
func (l *Log[E]) At(s types.Seq) *E {
	if s < l.origin || s-l.origin >= types.Seq(len(l.pages))*PageSlots+MaxAhead {
		return nil
	}
	i := int((s - l.origin) / PageSlots)
	for len(l.pages) <= i {
		l.pages = append(l.pages, nil)
	}
	if l.pages[i] == nil {
		l.pages[i] = new(page[E])
	}
	return &l.pages[i][(s-l.origin)%PageSlots]
}

// DropThrough forgets every entry at or below upTo, which is at or above
// origin-1: whole pages go, and the page upTo+1 falls in keeps the rest.
// Nothing above upTo is copied.
func (l *Log[E]) DropThrough(upTo types.Seq) {
	if k := (upTo + 1 - l.origin) / PageSlots; k >= types.Seq(len(l.pages)) {
		l.pages = nil
	} else {
		clear(l.pages[:k]) // the array outlives the reslice
		l.pages = l.pages[k:]
	}
	l.origin = (upTo + 1) / PageSlots * PageSlots
	if len(l.pages) > 0 && l.pages[0] != nil {
		clear(l.pages[0][:upTo+1-l.origin])
	}
}

// TruncateFrom forgets every entry at or above s, which is at or above
// origin: the pages past the one s falls in go whole.
func (l *Log[E]) TruncateFrom(s types.Seq) {
	i := int((s - l.origin) / PageSlots)
	if i >= len(l.pages) {
		return
	}
	if l.pages[i] != nil {
		clear(l.pages[i][(s-l.origin)%PageSlots:])
	}
	clear(l.pages[i+1:])
	l.pages = l.pages[:i+1]
}
