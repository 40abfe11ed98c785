// Package replog holds what a log-replication node keeps whichever rule
// elects its leader — Raft's vote or Paxos' phase 1 (Howard & Mortier,
// "Paxos vs Raft"): the paged log (Log), the outbox, decision stream,
// snapshot and dirty mark both nodes embed (Core), and the one mapping
// of that state onto the journal (Persister).
package replog

import "fortyconsensus/internal/types"

const (
	// PageSlots is how many entries one page of a Log holds.
	PageSlots = 256
	// MaxAhead is how far past the end of its log one message may make a
	// node grow it. An index is a wire integer and must not size memory:
	// an entry further ahead is ignored, and the protocol heals it like
	// any lost message.
	MaxAhead = 1 << 20
	// maxGrow bounds how far past origin Grow takes an entry: a journal
	// may hold entries further apart than MaxAhead, but an index must not
	// size memory without bound. 2^30 entries are 32 MiB of page pointers.
	maxGrow = 1 << 30
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

// End returns the first index past the log's last page.
func (l *Log[E]) End() types.Seq { return l.origin + types.Seq(len(l.pages))*PageSlots }

// Grow is At with maxGrow past origin in place of the MaxAhead bound:
// it first adds nil pages up to the one s falls in.
func (l *Log[E]) Grow(s types.Seq) *E {
	if s-l.origin >= maxGrow {
		return nil
	}
	for s >= l.origin && l.End() <= s {
		l.pages = append(l.pages, nil)
	}
	return l.At(s)
}

// Each calls f, in index order, with every entry above from that an
// allocated page holds, written or not.
func (l *Log[E]) Each(from types.Seq, f func(s types.Seq, e *E)) {
	for i := int((max(from+1, l.origin) - l.origin) / PageSlots); i < len(l.pages); i++ {
		for j := 0; l.pages[i] != nil && j < PageSlots; j++ {
			if s := l.origin + types.Seq(i*PageSlots+j); s > from {
				f(s, &l.pages[i][j])
			}
		}
	}
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
