package multipaxos

import (
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

const (
	// pageSlots is how many slots one page of the log holds.
	pageSlots = 256
	// maxAhead is how far past the end of its log one message may make a
	// node grow it. A slot number is a wire integer and must not size
	// memory: an Accept or catch-up entry further ahead is ignored, and
	// the heartbeat's catch-up heals it like any lost Accept.
	maxAhead = 1 << 20
)

// slot is everything a node holds about one log position.
type slot struct {
	num      types.Ballot  // acceptor: the ballot val was accepted under
	val      types.Value   // acceptor: the accepted value
	chosen   types.Value   // learner: the decided value, which an older accepted one need not equal
	votes    *quorum.Tally // leader: the phase-2 tally of ballot num, until it is met
	accepted bool
	learned  bool
}

type page [pageSlots]slot

// plog is the log: fixed-size pages of slots, added as a slot in them is
// first written and dropped whole by compaction, so that no step costs or
// allocates in proportion to the log's length. pages[0][0] is slot
// origin, a multiple of pageSlots; a hole is a nil page.
type plog struct {
	pages  []*page
	origin types.Seq
}

// get returns slot s, or nil where the log has no page for it.
func (l *plog) get(s types.Seq) *slot {
	if s < l.origin {
		return nil
	}
	i := (s - l.origin) / pageSlots
	if i >= types.Seq(len(l.pages)) || l.pages[i] == nil {
		return nil
	}
	return &l.pages[i][(s-l.origin)%pageSlots]
}

// at returns slot s for writing, adding its page if need be: nil below
// origin, and nil maxAhead or more past the last page.
func (l *plog) at(s types.Seq) *slot {
	if s < l.origin || s-l.origin >= types.Seq(len(l.pages))*pageSlots+maxAhead {
		return nil
	}
	i := int((s - l.origin) / pageSlots)
	for len(l.pages) <= i {
		l.pages = append(l.pages, nil)
	}
	if l.pages[i] == nil {
		l.pages[i] = new(page)
	}
	return &l.pages[i][(s-l.origin)%pageSlots]
}

// end returns the first slot past the log's last page.
func (l *plog) end() types.Seq { return l.origin + types.Seq(len(l.pages))*pageSlots }

// grow is at without the maxAhead bound: it first adds nil pages up to
// the one s falls in.
func (l *plog) grow(s types.Seq) *slot {
	for s >= l.origin && l.end() <= s {
		l.pages = append(l.pages, nil)
	}
	return l.at(s)
}

// acceptedAbove lists, in slot order, what the acceptor holds above from.
func (l *plog) acceptedAbove(from types.Seq) []Entry {
	var out []Entry
	for i := int((max(from+1, l.origin) - l.origin) / pageSlots); i < len(l.pages); i++ {
		if l.pages[i] == nil {
			continue
		}
		for j := range l.pages[i] {
			sl, s := &l.pages[i][j], l.origin+types.Seq(i*pageSlots+j)
			if s > from && sl.accepted {
				out = append(out, Entry{Slot: s, AcceptNum: sl.num, Val: sl.val})
			}
		}
	}
	return out
}

// dropThrough forgets every slot at or below upTo, which is at or above
// origin-1: whole pages go, and the page upTo+1 falls in keeps the rest.
func (l *plog) dropThrough(upTo types.Seq) {
	if k := (upTo + 1 - l.origin) / pageSlots; k >= types.Seq(len(l.pages)) {
		l.pages = nil
	} else {
		clear(l.pages[:k]) // the array outlives the reslice
		l.pages = l.pages[k:]
	}
	l.origin = (upTo + 1) / pageSlots * pageSlots
	if len(l.pages) > 0 && l.pages[0] != nil {
		clear(l.pages[0][:upTo+1-l.origin])
	}
}
