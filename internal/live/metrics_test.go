package live

import (
	"testing"
	"time"
)

// The histogram itself is internal/metrics' and is tested there; what
// is asserted here is that recording a commit or a read — a counter bump
// and a histogram sample under the metrics mutex — allocates nothing.
func TestObserveCommitAllocatesNothing(t *testing.T) {
	m := newServerMetrics(2)
	// AllocsPerRun calls the function once more than it counts.
	if allocs := testing.AllocsPerRun(1000, func() { m.observeCommit(1, 75*time.Microsecond) }); allocs != 0 {
		t.Fatalf("observeCommit allocates %.1f times per sample", allocs)
	}
	if got := m.LatencySummary(); got.Count != 1001 || got.P50 != 75 || m.Committed() != 1001 {
		t.Fatalf("after 1001 commits of 75 µs: committed %d, latency %+v", m.Committed(), got)
	}
	// A read shares the histogram and is not a commit.
	if allocs := testing.AllocsPerRun(1000, func() { m.observeRead(75 * time.Microsecond) }); allocs != 0 {
		t.Fatalf("observeRead allocates %.1f times per sample", allocs)
	}
	if got := m.LatencySummary(); got.Count != 2002 || m.Committed() != 1001 || m.readsServed.Load() != 1001 {
		t.Fatalf("after 1001 reads: committed %d, served %d, latency %+v", m.Committed(), m.readsServed.Load(), got)
	}
}
