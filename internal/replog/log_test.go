package replog

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// logModel is what a log was before it had pages: a map, swept on
// compaction. It lives here only, as the model the paged log is checked
// against.
type logModel struct {
	held       map[types.Seq]int
	base, last types.Seq // everything at or below base is compacted; last is the highest held
}

// same compares l with the model: every entry from a page below the base
// to a page past the last, and where the pages are.
func (m *logModel) same(t *testing.T, l *Log[int], step string) {
	t.Helper()
	if l.origin%PageSlots != 0 || l.origin > m.base+1 {
		t.Fatalf("%s: origin %d with base %d", step, l.origin, m.base)
	}
	if end := l.origin + types.Seq(len(l.pages))*PageSlots; end > max(m.last, m.base)+2*PageSlots {
		t.Fatalf("%s: pages run to %d, past a last of %d", step, end, m.last)
	}
	lo := types.Seq(0)
	if m.base > PageSlots {
		lo = m.base - PageSlots
	}
	for s := lo; s <= m.last+PageSlots; s++ {
		got := 0
		if e := l.Get(s); e != nil {
			got = *e
		}
		if want := m.held[s]; got != want || s <= m.base && got != 0 {
			t.Fatalf("%s: entry %d reads %d, model %d (base %d)", step, s, got, want, m.base)
		}
	}
}

// A log and the model take the same random run of both backends' use:
// Raft's appends at the end, truncations from anywhere (across a page
// boundary too) and installs that replace the log; Multi-Paxos' writes
// ahead with holes; and compaction in the middle of a page, on its edges
// and one to either side. After every step they must hold the same.
func TestLogMatchesMapModel(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		rng := simnet.NewRNG(uint64(seed) + 1)
		var l Log[int]
		m := &logModel{held: map[types.Seq]int{}}
		put := func(s types.Seq) {
			v := int(s)*10 + 1 + rng.Intn(9)
			*l.At(s) = v
			m.held[s], m.last = v, max(m.last, s)
		}
		// edge is a point near a page boundary in (lo, hi], or hi.
		edge := func(lo, hi types.Seq) types.Seq {
			e := hi/PageSlots*PageSlots - 1 + types.Seq(rng.Intn(3))
			if e <= lo || e > hi {
				return hi
			}
			return e
		}
		for step := 0; step < 60; step++ {
			var what string
			switch op := rng.Intn(100); {
			case op < 35: // appends at the end, sometimes more than a page
				k := 1 + rng.Intn(PageSlots)
				if rng.Intn(4) == 0 {
					k += PageSlots
				}
				what = fmt.Sprintf("append %d from %d", k, max(m.last, m.base)+1)
				for s := max(m.last, m.base) + 1; k > 0; s, k = s+1, k-1 {
					put(s)
				}
			case op < 45: // a write ahead, leaving a hole
				s := max(m.last, m.base) + 2 + types.Seq(rng.Intn(3*PageSlots))
				what = fmt.Sprintf("write ahead at %d", s)
				put(s)
			case op < 65: // truncate: anywhere above the base, or across a page boundary
				if m.last <= m.base {
					continue
				}
				from := m.base + 1 + types.Seq(rng.Intn(int(m.last-m.base)))
				if rng.Intn(2) == 0 {
					from = edge(m.base, m.last)
				}
				what = fmt.Sprintf("truncate from %d", from)
				l.TruncateFrom(from)
				for s := from; s <= m.last; s++ {
					delete(m.held, s)
				}
				m.last = from - 1
			case op < 90: // compact: in the middle of a page, or near an edge
				if m.last <= m.base {
					continue
				}
				upTo := m.base + 1 + types.Seq(rng.Intn(int(m.last-m.base)))
				if rng.Intn(2) == 0 {
					upTo = edge(m.base, m.last)
				}
				what = fmt.Sprintf("compact through %d", upTo)
				l.DropThrough(upTo)
				for s := m.base + 1; s <= upTo; s++ {
					delete(m.held, s)
				}
				m.base = upTo
			default: // an install: the log replaced by a snapshot inside it or pages past it
				upTo := max(m.last+types.Seq(rng.Intn(3*PageSlots)), m.base+PageSlots) - types.Seq(rng.Intn(PageSlots))
				what = fmt.Sprintf("install through %d", upTo)
				l = Log[int]{}
				l.DropThrough(upTo)
				m.held, m.base, m.last = map[types.Seq]int{}, upTo, upTo
			}
			m.same(t, &l, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		}
	}
}

func TestTruncateAcrossAPageBoundary(t *testing.T) {
	var l Log[int]
	for s := types.Seq(1); s <= 3*PageSlots; s++ {
		*l.At(s) = int(s)
	}
	l.TruncateFrom(PageSlots - 1)
	if len(l.pages) != 1 || *l.Get(PageSlots - 2) != PageSlots-2 || *l.Get(PageSlots - 1) != 0 {
		t.Fatalf("truncation from %d left %d pages, entry %d = %d", PageSlots-1, len(l.pages), PageSlots-2, *l.Get(PageSlots - 2))
	}
	// A truncated position reads as never written, and appends again.
	*l.At(PageSlots - 1), *l.At(PageSlots) = -1, -2
	if *l.Get(PageSlots - 1) != -1 || *l.Get(PageSlots) != -2 || l.Get(PageSlots+1) == nil || *l.Get(PageSlots + 1) != 0 {
		t.Fatal("appends after a truncation read wrong")
	}
}

// Compaction drops whole pages and copies nothing: compacting a long log
// one entry at a time allocates nothing.
func TestCompactionCopiesNothing(t *testing.T) {
	var l Log[int]
	for s := types.Seq(1); s <= 64*PageSlots; s++ {
		*l.At(s) = int(s)
	}
	upTo := types.Seq(PageSlots / 2)
	if allocs := testing.AllocsPerRun(1000, func() { upTo++; l.DropThrough(upTo) }); allocs != 0 {
		t.Fatalf("a compaction allocated %v times", allocs)
	}
	if *l.Get(upTo + 1) != int(upTo+1) || l.Get(upTo) != nil && *l.Get(upTo) != 0 {
		t.Fatalf("after compacting through %d the log reads %v, %v", upTo, l.Get(upTo), *l.Get(upTo + 1))
	}
}

func TestAppendAllocatesOnlyItsPages(t *testing.T) {
	// Growing the log allocates the log: no copy of what is already there.
	// A slice grown by append allocates its final size several times over.
	type entry struct {
		term uint64
		val  []byte
	}
	const entries = 300_000
	var before, after runtime.MemStats
	var l Log[entry]
	runtime.ReadMemStats(&before)
	for s := types.Seq(1); s <= entries; s++ {
		l.At(s).term = 1
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1.2*entries*float64(unsafe.Sizeof(entry{}))); got > limit {
		t.Fatalf("%d entries of %d bytes allocated %d bytes, want at most %d", entries, unsafe.Sizeof(entry{}), got, limit)
	}
}

func TestAWriteFarPastTheLogIsRefused(t *testing.T) {
	var l Log[int]
	if l.At(1<<40) != nil || len(l.pages) != 0 {
		t.Fatal("took index 1<<40")
	}
	// The bound is on how far one write reaches past the last page, and
	// reaching it costs one page and a nil pointer for each one skipped.
	*l.At(1) = 1
	if l.At(PageSlots+MaxAhead) != nil {
		t.Fatal("took the first index past the bound")
	}
	if l.At(PageSlots+MaxAhead-1) == nil {
		t.Fatal("refused the last index within the bound")
	}
	held := 0
	for _, p := range l.pages {
		if p != nil {
			held++
		}
	}
	if len(l.pages) != 1+MaxAhead/PageSlots || held != 2 {
		t.Fatalf("%d pages, %d of them allocated; want %d and 2", len(l.pages), held, 1+MaxAhead/PageSlots)
	}
}
